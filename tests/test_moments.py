from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import Z
from ldgq import (
    NormalizationError,
    eigensystem,
    eigenvalues_desc,
    make_biaxial,
    order_params,
)
from ldgq import moments
from ldgq.moments import (
    _nearest_nodes,
    band_distribution,
    build_quadrature,
    distribution_from_values,
    load_density_csv,
    q_from_psi,
    uniform_distribution,
    watson_distribution,
)
from ldgq.qtensor import in_physical_triangle, rotate_coeffs


def test_quadrature_invariants_low_level():
    quad = build_quadrature(1)
    assert abs(quad.weights.sum() - 4 * np.pi) < 1e-10
    second = np.einsum("n,ni,nj->ij", quad.weights, quad.nodes, quad.nodes)
    assert np.abs(second - (4 * np.pi / 3) * np.eye(3)).max() < 1e-12
    assert (quad.weights > 0).all()
    assert np.abs(np.einsum("ni,ni->n", quad.nodes, quad.nodes) - 1.0).max() < 1e-14


def test_quadrature_antipodal_symmetry_exact():
    for level in (1, 3, 8):
        quad = build_quadrature(level)
        assert np.array_equal(quad.nodes[quad.antipode], -quad.nodes)
        assert np.array_equal(quad.weights[quad.antipode], quad.weights)
        assert (quad.antipode[quad.antipode] == np.arange(quad.antipode.size)).all()


def test_quadrature_higher_moments():
    quad = build_quadrature(8)
    m4 = float(quad.weights @ quad.nodes[:, 2] ** 4)
    assert abs(m4 - 4 * np.pi / 5) < 1e-10
    mixed = float(quad.weights @ (quad.nodes[:, 0] ** 2 * quad.nodes[:, 1] ** 2))
    assert abs(mixed - 4 * np.pi / 15) < 1e-10
    with pytest.raises(ValueError):
        build_quadrature(0)


def test_uniform_density_gives_zero_tensor():
    quad = build_quadrature(6)
    q = q_from_psi(uniform_distribution(quad), quad)
    assert q.norm < 1e-10


def test_distribution_validation():
    quad = build_quadrature(2)
    with pytest.raises(NormalizationError):
        distribution_from_values(quad, -np.ones(quad.weights.size))
    with pytest.raises(NormalizationError):
        distribution_from_values(quad, np.zeros(quad.weights.size))
    with pytest.raises(NormalizationError):
        distribution_from_values(quad, np.ones(7))
    # the band |p.z| <= 0.05 holds none of level 1's nodes, at z = +-1/sqrt(3)
    with pytest.raises(NormalizationError, match="band contains no quadrature nodes"):
        band_distribution(build_quadrature(1), Z, 0.05)
    # unnormalized density rejected by the moment map
    psi = uniform_distribution(quad)
    bad = type(psi)(values=2.0 * psi.values)
    with pytest.raises(NormalizationError):
        q_from_psi(bad, quad)


def test_symmetrization_applied_automatically():
    quad = build_quadrature(4)
    rng = np.random.default_rng(0)
    psi = distribution_from_values(quad, rng.random(quad.weights.size))
    assert np.allclose(psi.values, psi.values[quad.antipode], atol=0.0)


def test_watson_concentration_approaches_prolate_limit():
    quad = build_quadrature(48)
    prev = -np.inf
    for kappa in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
        q = q_from_psi(watson_distribution(quad, Z, kappa), quad)
        es = eigensystem(q)
        lam_max = es.lambdas[0]
        assert lam_max > prev  # monotone approach, never attained
        assert lam_max < 2 / 3 + 1e-12
        prev = lam_max
    assert prev > 0.65
    assert abs(abs(es.vectors[0] @ Z) - 1.0) < 1e-8


def test_equator_band_gives_oblate_pair():
    quad = build_quadrature(48)
    q = q_from_psi(band_distribution(quad, Z, 0.05), quad)
    lam = eigenvalues_desc(q.coeffs)
    assert lam[2] == pytest.approx(-1 / 3, abs=2e-3)
    op = order_params(q)
    assert op.s == pytest.approx(0.5, abs=2e-3)
    assert op.r == pytest.approx(0.5, abs=2e-3)


def test_random_densities_respect_eigenvalue_bounds():
    quad = build_quadrature(8)
    rng = np.random.default_rng(12)
    for _ in range(500):
        psi = distribution_from_values(quad, rng.random(quad.weights.size))
        lam = eigenvalues_desc(q_from_psi(psi, quad).coeffs)
        assert lam[0] <= 2 / 3 + 1e-8
        assert lam[2] >= -1 / 3 - 1e-8


def test_audit_eigen_bounds_delegates():
    quad = build_quadrature(6)
    q = q_from_psi(watson_distribution(quad, Z, 5.0), quad)
    assert in_physical_triangle(q, 1e-8)
    bad = make_biaxial(1.2, 0.0, Z, np.array([1.0, 0.0, 0.0]))
    assert not in_physical_triangle(bad, 0.0)


def test_moment_map_linearity():
    quad = build_quadrature(8)
    rng = np.random.default_rng(21)
    psi1 = distribution_from_values(quad, rng.random(quad.weights.size))
    psi2 = distribution_from_values(quad, rng.random(quad.weights.size))
    q1 = q_from_psi(psi1, quad).coeffs
    q2 = q_from_psi(psi2, quad).coeffs
    for alpha in (0.0, 0.25, 0.7, 1.0):
        mix = type(psi1)(values=alpha * psi1.values + (1 - alpha) * psi2.values)
        qm = q_from_psi(mix, quad).coeffs
        assert np.abs(qm - (alpha * q1 + (1 - alpha) * q2)).max() < 1e-12


def test_rotation_equivariance():
    # evaluating a rotated smooth density reproduces the conjugated tensor up
    # to quadrature error
    quad = build_quadrature(24)
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    angle = 0.9
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
    psi = watson_distribution(quad, Z, 3.0)
    psi_rot = watson_distribution(quad, rot @ Z, 3.0)
    q = q_from_psi(psi, quad).coeffs
    q_rot = q_from_psi(psi_rot, quad).coeffs
    assert np.abs(q_rot - rotate_coeffs(q, rot)).max() < 1e-8


def test_load_density_csv(tmp_path):
    quad = build_quadrature(16)
    path = tmp_path / "density.csv"
    rows = ["theta,phi,value"]
    rng = np.random.default_rng(33)
    for _ in range(400):
        theta = np.arccos(rng.uniform(-1, 1))
        phi = rng.uniform(0, 2 * np.pi)
        weight = np.exp(3.0 * np.cos(theta) ** 2)
        rows.append(f"{theta},{phi},{weight}")
    path.write_text("\n".join(rows) + "\n")
    psi = load_density_csv(path, quad)
    q = q_from_psi(psi, quad)
    lam = eigenvalues_desc(q.coeffs)
    assert lam[0] > 0.05  # prolate ordering along z
    es_axis = eigensystem(q).vectors[0]
    assert abs(abs(es_axis @ Z) - 1.0) < 0.05

    bad = tmp_path / "bad.csv"
    bad.write_text("theta,phi,value\n0.5,0.1,-2.0\n")
    with pytest.raises(NormalizationError):
        load_density_csv(bad, quad)


def _unit(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def _loop_nearest(quad, theta, phi):
    return int(np.argmax(quad.nodes @ _unit(theta, phi)))


def _per_sample_loop(path, quad):
    """Node values of the sample-by-sample reader, or its error message."""
    sums = np.zeros_like(quad.weights)
    counts = np.zeros_like(quad.weights)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 3:
                return f"{path}: line {lineno}: expected 'theta,phi,value'"
            try:
                theta, phi, value = (float(p) for p in parts)
            except ValueError:
                if lineno == 1:
                    continue
                return f"{path}: line {lineno}: non-numeric row"
            if value < 0.0:
                return f"{path}: line {lineno}: negative density"
            if not (np.isfinite(theta) and np.isfinite(phi)):
                return f"{path}: line {lineno}: non-finite angle"
            nearest = _loop_nearest(quad, theta, phi)
            sums[nearest] += value
            counts[nearest] += 1.0
    if not counts.any():
        return f"{path}: no density samples found"
    return np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)


def _tie_samples(quad):
    """(theta, phi) on every node and halfway between neighbouring nodes."""
    n = quad.nodes
    thetas = np.unique(np.arccos(n[:, 2]))
    phis = np.unique(np.mod(np.arctan2(n[:, 1], n[:, 0]), 2.0 * np.pi))
    ring = np.append(phis, phis[0] + 2.0 * np.pi)
    samples = [(t, p) for t in thetas for p in phis]
    samples += [(t, 0.5 * (a + b)) for t in thetas for a, b in zip(ring, ring[1:])]
    samples += [(0.5 * (s + t), p) for s, t in zip(thetas, thetas[1:]) for p in phis]
    return np.array(samples)


def _assert_agrees_with_loop(path, quad):
    expected = _per_sample_loop(path, quad)
    if not isinstance(expected, str):
        try:
            expected = distribution_from_values(quad, expected).values
        except NormalizationError as exc:
            expected = str(exc)
    try:
        got = load_density_csv(path, quad).values
    except NormalizationError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("level", [2, 7, 16])
def test_nearest_nodes_match_the_per_sample_argmax_on_ties(level):
    # at midpoints two nodes are equally near; each BLAS kernel rounds the
    # dot products its own way, and the per-sample argmax must still win
    quad = build_quadrature(level)
    samples = _tie_samples(quad)
    theta, phi = samples.T
    sin_theta = np.sin(theta)
    points = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta)], axis=1)
    expected = [_loop_nearest(quad, t, p) for t, p in samples]
    assert np.array_equal(_nearest_nodes(points, quad), expected)


_quadrature = lru_cache(maxsize=None)(build_quadrature)


@st.composite
def _level_and_points(draw):
    """A level and unit points of one kind: random, on or between nodes, on the seam, near a pole."""
    kind = draw(st.sampled_from(
        ["random", "node", "antipode", "ring-midpoint", "azimuth-midpoint", "seam", "pole"]))
    level = draw(st.integers(1, 64) | st.just(128) if kind == "pole" else st.integers(1, 64))
    quad = _quadrature(level)
    n_pol = level + 1
    thetas = np.arccos(quad.ring_cos)
    step = np.pi / n_pol
    ring = st.integers(0, n_pol - 1)
    azimuth = st.integers(-n_pol, n_pol)
    phi = st.floats(-np.pi, np.pi)
    point = {
        "random": st.builds(_unit, st.floats(0.0, np.pi), phi),
        "node": st.integers(0, len(quad.nodes) - 1).map(lambda i: quad.nodes[i]),
        "antipode": st.integers(0, len(quad.nodes) - 1).map(lambda i: -quad.nodes[i]),
        "ring-midpoint": st.builds(
            lambda i, j: _unit(0.5 * (thetas[i] + thetas[i + 1]), j * step),
            st.integers(0, n_pol - 2), azimuth),
        "azimuth-midpoint": st.builds(lambda i, j: _unit(thetas[i], (j + 0.5) * step),
                                      ring, azimuth),
        "seam": st.builds(_unit, st.floats(0.0, np.pi), st.sampled_from([np.pi, -np.pi])),
        "pole": st.builds(
            lambda north, e, f: _unit(10.0 ** e if north else np.pi - 10.0 ** e, f),
            st.booleans(), st.floats(-15.0, -2.0),
            phi | azimuth.map(lambda j: j * step) | azimuth.map(lambda j: (j + 0.5) * step)),
    }[kind]
    return quad, np.array(draw(st.lists(point, min_size=1, max_size=24)))


@settings(max_examples=300, deadline=None)
@given(_level_and_points())
def test_nearest_nodes_match_the_per_point_argmax(level_and_points):
    quad, points = level_and_points
    expected = [int(np.argmax(quad.nodes @ p)) for p in points]
    assert np.array_equal(_nearest_nodes(points, quad), expected)


def test_load_density_csv_ties_agree_with_loop(tmp_path):
    quad = build_quadrature(16)
    samples = _tie_samples(quad)
    rows = ["theta,phi,value"]
    rows += [f"{t!r},{p!r},{1.0 + i / 7.0!r}" for i, (t, p) in enumerate(samples)]
    path = tmp_path / "ties.csv"
    path.write_text("\n".join(rows) + "\n")
    _assert_agrees_with_loop(path, quad)


@pytest.mark.parametrize("body", [
    "theta,phi,value\n0.5,0.1,2.0\n1.2,2.0,0.5\n",
    "0.5,0.1,2.0\n1.2,2.0,0.5\n",
    "# angles in radians\n\n0.5,0.1,2.0\n   \n  # note\n1.2,2.0,0.5\n",
    "theta , phi , value\n 0.5 , 0.1 ,2.0\n1.2,\t2.0 , 0.5\n",
    "0.5,0.1,2.0 # inline\n1.2,2.0,0.5\n",
    "theta,phi,value\n0.5,0.1,2.0 # inline\n",
    "theta,phi,value\n0.5,0.1,-2.0\n",
    "theta,phi,value\n0.5,0.1,2.0\n1.2,x,0.5\n",
    "0.5,0.1,2.0\ntheta,phi,value\n",
    "theta,phi\n0.5,0.1,2.0\n",
    "theta,phi,value\n0.5,0.1\n",
    "theta,phi,value\n0.5,0.1,2.0,3.0\n",
    "theta,phi,value\n# only comments\n",
    "",
    "0.5,0.1,-0.0\n",
    "0.5,0.1,1_0\n",
    "0.5,0.1,nan\n",
    "theta,phi,value\nnan,0.1,2.0\n0.5,0.1,1.0\n",
    "0.5,0.1,2.0\n0.5,NaN,1.0\n",
    "0.5,inf,1.0\n",
    "theta,phi,value\n0.5,0.1,2.0\n-inf,0.1,1.0\n",
    "0.5,0.1,2.0\r\n1.2,2.0,0.5\r\n",
    # the header is line 1 alone: blank, whitespace-only and '#' lines around it
    "theta,phi,value\n",
    "theta,phi,value",
    " theta,phi,value \n0.5,0.1,2.0\n",
    "\ntheta,phi,value\n0.5,0.1,2.0\n",
    " \t \ntheta,phi,value\n0.5,0.1,2.0\n",
    "# c\ntheta,phi,value\n0.5,0.1,2.0\n",
    " \t \n0.5,0.1,2.0\n\n\n1.2,2.0,0.5",
    "theta,phi,value,extra\n0.5,0.1,2.0\n",
])
def test_load_density_csv_agrees_with_loop(tmp_path, body):
    path = tmp_path / "density.csv"
    path.write_bytes(body.encode())
    _assert_agrees_with_loop(path, build_quadrature(4))


def test_load_density_csv_error_lines(tmp_path):
    quad = build_quadrature(4)
    path = tmp_path / "density.csv"
    path.write_text("theta,phi,value\n# c\n\n0.5,0.1,2.0\n0.5,0.1,-1.0\n")
    with pytest.raises(NormalizationError, match=r": line 5: negative density$"):
        load_density_csv(path, quad)
    path.write_text("theta,phi,value\n0.5,0.1,2.0\n\n0.5,abc,1.0\n")
    with pytest.raises(NormalizationError, match=r": line 4: non-numeric row$"):
        load_density_csv(path, quad)
    path.write_text("theta,phi,value\n0.5,0.1,2.0\n\nnan,0.1,1.0\n")
    with pytest.raises(NormalizationError, match=r": line 4: non-finite angle$"):
        load_density_csv(path, quad)


def test_load_density_csv_parses_valid_files_in_one_pass(tmp_path, monkeypatch):
    # header, comments, blank lines and spaces stay on the array parse
    def line_reader(path, fh):
        raise AssertionError("per-line reader called on a valid file")

    monkeypatch.setattr(moments, "_read_sample_lines", line_reader)
    path = tmp_path / "density.csv"
    path.write_text("theta, phi, value\n# c\n\n 0.5 , 0.1 , 2.0\n  # d\n1.2,2.0,0.5\n")
    quad = build_quadrature(4)
    psi = load_density_csv(path, quad)
    assert np.count_nonzero(psi.values) == 4  # two nodes and their antipodes
