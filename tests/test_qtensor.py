import numpy as np
import pytest

from conftest import X, Y, Z
from ldgq import (
    FrameError,
    QTensor,
    biaxiality,
    eigensystem,
    eigenvalues_desc,
    in_physical_triangle,
    make_biaxial,
    norm_and_region,
    order_params,
    rotate_coeffs,
    trace_invariants,
    uniaxial_coeffs,
)
from ldgq.qtensor import BASIS, coeffs_to_matrices, matrices_to_coeffs


def random_coeffs(rng, n, radius=10.0):
    v = rng.standard_normal((n, 5))
    return v * (radius * rng.random((n, 1)) / np.sqrt((v * v).sum(-1, keepdims=True)))


def test_basis_orthonormal_and_traceless():
    gram = np.einsum("aij,bij->ab", BASIS, BASIS)
    assert np.allclose(gram, np.eye(5), atol=1e-15)
    assert np.allclose(np.trace(BASIS, axis1=1, axis2=2), 0.0, atol=1e-15)


def test_reconstruction_symmetric_traceless_and_norm():
    rng = np.random.default_rng(7)
    coeffs = random_coeffs(rng, 100)
    mats = coeffs_to_matrices(coeffs)
    assert np.allclose(mats, np.swapaxes(mats, -1, -2), atol=0.0)
    assert np.abs(np.trace(mats, axis1=-2, axis2=-1)).max() < 1e-13
    frob = np.einsum("nij,nij->n", mats, mats)
    assert np.allclose(frob, (coeffs * coeffs).sum(-1), rtol=1e-13)
    # projection round-trip
    assert np.allclose(matrices_to_coeffs(mats), coeffs, rtol=1e-13, atol=1e-14)


def test_make_biaxial_prolate_eigenvalues():
    q = make_biaxial(1.0, 0.0, Z, X)
    es = eigensystem(q)
    assert np.allclose(es.lambdas, [2 / 3, -1 / 3, -1 / 3], atol=1e-14)
    assert abs(abs(es.vectors[0] @ Z) - 1.0) < 1e-12


def test_make_biaxial_zero_and_antisymmetric_spectrum():
    assert make_biaxial(0.0, 0.0, Z, X).norm == 0.0
    q = make_biaxial(2.0, 1.0, X, Y)
    tr2, tr3 = trace_invariants(q.coeffs)
    assert abs(tr3) < 1e-14
    assert np.allclose(eigenvalues_desc(q.coeffs), [1.0, 0.0, -1.0], atol=1e-14)


def test_make_biaxial_rejects_bad_frames():
    with pytest.raises(FrameError):
        make_biaxial(1.0, 0.0, 2 * Z, X)
    with pytest.raises(FrameError):
        make_biaxial(1.0, 0.0, Z, Z)


def test_invariants_examples():
    q = make_biaxial(1.0, 0.0, Z, X)
    tr2, tr3 = trace_invariants(q.coeffs)
    assert tr2 == pytest.approx(2 / 3, rel=1e-14)
    assert q.norm**2 == pytest.approx(tr2, rel=1e-14)
    assert trace_invariants(QTensor.zero().coeffs) == (0.0, 0.0)
    assert QTensor.zero().norm == 0.0
    tr2, tr3 = trace_invariants(make_biaxial(1.0, 1.0, Z, X).coeffs)
    assert tr2 == pytest.approx(2 / 3, rel=1e-13)
    assert tr3 == pytest.approx(-2 / 9, rel=1e-13)


def test_closed_form_invariants_match_tensor_evaluation():
    # tr Q^2 = (2/3)(s^2 + r^2 - s r), tr Q^3 = (2s^3 + 2r^3 - 3s^2 r - 3s r^2)/9
    rng = np.random.default_rng(11)
    for _ in range(200):
        s, r = rng.uniform(-2, 2, size=2)
        q = make_biaxial(s, r, Z, X)
        tr2, tr3 = trace_invariants(q.coeffs)
        assert tr2 == pytest.approx((2 / 3) * (s * s + r * r - s * r), rel=1e-12, abs=1e-14)
        assert tr3 == pytest.approx(
            (2 * s**3 + 2 * r**3 - 3 * s * s * r - 3 * s * r * r) / 9, rel=1e-12, abs=1e-14
        )


def test_eigensystem_residual_and_orthonormality():
    rng = np.random.default_rng(3)
    for coeffs in random_coeffs(rng, 50, radius=5.0):
        q = QTensor(coeffs)
        es = eigensystem(q)
        assert es.lambdas[0] >= es.lambdas[1] >= es.lambdas[2]
        assert abs(es.lambdas.sum()) < 1e-12 * (1 + q.norm)
        assert np.allclose(es.vectors @ es.vectors.T, np.eye(3), atol=1e-12)
        for lam, v in zip(es.lambdas, es.vectors):
            assert np.linalg.norm(q.matrix @ v - lam * v) <= 1e-12 * (1 + q.norm)


def test_eigensystem_zero_and_unit_norm():
    es = eigensystem(QTensor.zero())
    assert np.allclose(es.lambdas, 0.0)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(5)
    q = QTensor(v / np.linalg.norm(v))
    lam = eigensystem(q).lambdas
    assert abs(lam.sum()) < 1e-12
    assert (lam * lam).sum() == pytest.approx(1.0, abs=1e-12)


def test_order_params_examples_and_roundtrip():
    assert order_params(make_biaxial(1.0, 0.0, Z, X)).s == pytest.approx(1.0, abs=1e-13)
    op = order_params(QTensor.from_matrix(np.diag([1 / 6, 1 / 6, -1 / 3])))
    assert (op.s, op.r) == (pytest.approx(0.5, abs=1e-13), pytest.approx(0.5, abs=1e-13))
    zero = order_params(QTensor.zero())
    assert (zero.s, zero.r) == (0.0, 0.0)

    # identity on the cone 0 <= r <= s, relabeling elsewhere
    rng = np.random.default_rng(13)
    for _ in range(100):
        s, r = np.sort(rng.uniform(0, 1, size=2))[::-1]
        op = order_params(make_biaxial(s, r, Z, X))
        assert op.s == pytest.approx(s, abs=1e-12)
        assert op.r == pytest.approx(r, abs=1e-12)
    op = order_params(make_biaxial(0.0, 1.0, Z, X))
    assert (op.s, op.r) == (pytest.approx(1.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))


def test_biaxiality_endpoints_and_error():
    assert biaxiality(make_biaxial(0.7, 0.0, Z, X)) == pytest.approx(0.0, abs=1e-12)
    assert biaxiality(make_biaxial(2.0, 1.0, X, Y)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        biaxiality(QTensor.zero())


def test_biaxiality_does_not_change_with_the_scale_of_q():
    # (tr Q^3)^2 and (tr Q^2)^3 underflow at 1e-100 and overflow at 1e100
    coeffs = np.array([1.0, 0.3, 0.0, 0.1, 0.0])
    beta = biaxiality(QTensor(coeffs))
    assert beta == pytest.approx(0.5742305404472205, rel=1e-15)
    for scale in 10.0 ** np.arange(-150, 151, 10):
        assert biaxiality(QTensor(scale * coeffs)) == pytest.approx(beta, rel=1e-12, abs=0.0)


def test_biaxiality_closed_form_cross_check():
    # beta = (27/4) s^2 r^2 (s-r)^2 / (s^2 + r^2 - s r)^3
    rng = np.random.default_rng(17)
    for _ in range(200):
        s, r = rng.uniform(0.1, 2.0, size=2)
        if abs(s - r) < 1e-3:
            continue
        q = make_biaxial(s, r, Z, X)
        expected = 6.75 * s * s * r * r * (s - r) ** 2 / (s * s + r * r - s * r) ** 3
        assert biaxiality(q) == pytest.approx(expected, rel=1e-10)


def test_biaxiality_range_and_identity_bulk_sample():
    rng = np.random.default_rng(23)
    coeffs = random_coeffs(rng, 5000)
    tr2, tr3 = trace_invariants(coeffs)
    beta = 1.0 - 6.0 * tr3 * tr3 / tr2**3
    assert beta.min() > -1e-12 and beta.max() < 1 + 1e-12
    lam = eigenvalues_desc(coeffs)
    s = lam[:, 0] - lam[:, 2]
    r = lam[:, 1] - lam[:, 2]
    lhs = tr2**3 - 6.0 * tr3 * tr3
    rhs = 2.0 * s * s * r * r * (s - r) ** 2
    assert np.abs(lhs - rhs).max() / tr2.max() ** 3 < 1e-10


def test_in_physical_triangle():
    # The interval test is inclusive; a few ulps of tolerance absorb the
    # basis-reconstruction and eigensolver roundoff at the exact boundary.
    q = QTensor.from_matrix(np.diag([2 / 3, -1 / 3, -1 / 3]))
    assert in_physical_triangle(q, 4e-16)
    assert in_physical_triangle(make_biaxial(1.0 - 1e-12, 0.0, Z, X), 0.0)
    assert in_physical_triangle(QTensor.zero(), 0.0)
    assert not in_physical_triangle(make_biaxial(1.2, 0.0, Z, X), 0.0)
    with pytest.raises(ValueError):
        in_physical_triangle(QTensor.zero(), -1e-3)


def test_norm_and_region_examples():
    assert norm_and_region(1.0, 0.0) == (pytest.approx(2 / 3), "R1")
    assert norm_and_region(-1.0, 0.0) == (pytest.approx(2 / 3), "R2")
    norm2, region = norm_and_region(1.0, 1.0)
    assert region == "R1"
    assert (1 / 6) * 4 <= norm2 <= (2 / 3) * 4
    assert norm_and_region(0.0, 0.0)[1] == "R1"
    assert norm_and_region(0.5, -0.5)[1] == "R3"


@pytest.mark.parametrize("s, r", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)])
def test_norm_and_region_rejects_non_finite_pairs(s, r):
    with pytest.raises(ValueError, match="s and r must be finite"):
        norm_and_region(s, r)


def test_norm_identity_and_region_inequalities():
    rng = np.random.default_rng(29)
    for _ in range(500):
        s, r = rng.uniform(-3, 3, size=2)
        norm2, region = norm_and_region(s, r)
        q = make_biaxial(s, r, Z, X)
        assert norm2 == pytest.approx(q.norm**2, rel=1e-12, abs=1e-15)
        span = {"R1": s + r, "R2": r - 2 * s, "R3": s - 2 * r}[region]
        assert span * span / 6 <= norm2 * (1 + 1e-12) + 1e-15
        assert norm2 <= (2 / 3) * span * span * (1 + 1e-12) + 1e-15


def test_triangle_sandwich_by_rejection_sampling():
    from ldgq.bounds import triangle_scale

    rng = np.random.default_rng(31)
    eta = 0.8
    for _ in range(2000):
        s, r = rng.uniform(-3, 3, size=2)
        norm2, _ = norm_and_region(s, r)
        scale = triangle_scale(s, r)
        if scale <= np.sqrt(1.5) * eta:
            assert norm2 <= eta * eta * (1 + 1e-12)
        if norm2 <= eta * eta:
            assert scale <= np.sqrt(6) * eta * (1 + 1e-12)


def test_rotation_conjugates_coefficients():
    rng = np.random.default_rng(37)
    # rotation about a random axis via Rodrigues
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = 0.7
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
    coeffs = random_coeffs(rng, 20)
    rotated = rotate_coeffs(coeffs, rot)
    direct = np.einsum("ip,npq,jq->nij", rot, coeffs_to_matrices(coeffs), rot)
    assert np.allclose(coeffs_to_matrices(rotated), direct, atol=1e-13)
    # invariants preserved
    assert np.allclose((rotated * rotated).sum(-1), (coeffs * coeffs).sum(-1), rtol=1e-13)


def test_uniaxial_coeffs_matches_make_biaxial():
    rng = np.random.default_rng(41)
    s = rng.uniform(-1, 1, size=7)
    arr = uniaxial_coeffs(s, Z)
    for si, row in zip(s, arr):
        assert np.allclose(row, make_biaxial(si, 0.0, Z, X).coeffs, atol=1e-14)
