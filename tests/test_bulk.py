import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import X, Z, mbba, mbba_quartic_as_polynomial
from ldgq import (
    GLPenalized,
    Material,
    Polynomial,
    Quartic,
    QTensor,
    RegimeError,
    a_of_temperature,
    bulk_gradient,
    bulk_triangle,
    characteristic_temperatures,
    f_bulk,
    gl_bound,
    invariants,
    make_biaxial,
    poly_bound_C,
    stationary_scalars,
    uniaxial_coeffs,
)
from ldgq.qtensor import BASIS, coeffs_to_matrices, square_coeffs, trace_invariants
from ldgq.solver import _line_square


def grad_scale(fun, q):
    _, _, norm = invariants(q)
    m = fun.material
    return abs(fun.a) * norm + m.b * norm**2 + m.c * norm**3 + 1e-30


def test_material_validation():
    with pytest.raises(ValueError):
        Material(alpha=-1.0, b=1.0, c=1.0, t_star=0.0, elastic_l=1.0)
    with pytest.raises(ValueError):
        Material(alpha=1.0, b=1.0, c=0.0, t_star=0.0, elastic_l=1.0)


def test_a_of_temperature_mbba():
    m = mbba()
    assert a_of_temperature(m, 45.0) == 0.0
    assert a_of_temperature(m, 46.0) == pytest.approx(420.0)
    assert a_of_temperature(m, 44.52) == pytest.approx(-201.6)


def test_f_bulk_zero_for_all_variants():
    m = mbba()
    zero = QTensor.zero()
    poly = mbba_quartic_as_polynomial(m, 44.0)
    for fun in (Quartic(m, 44.0), poly, GLPenalized(m, 44.0, 0.1)):
        assert f_bulk(fun, zero) == 0.0


def test_f_bulk_vanishes_at_transition():
    # at the transition a = b^2/27c the ordered branch has the same density as
    # the isotropic state, and s_plus = b/3c there
    m = mbba()
    t_ni = characteristic_temperatures(m).t_ni
    fun = Quartic(m, t_ni)
    rep = stationary_scalars(m, t_ni)
    assert rep.s_plus == pytest.approx(m.b / (3 * m.c), rel=1e-9)
    q = QTensor(uniaxial_coeffs(rep.s_plus, Z))
    scale = abs(f_bulk(fun, make_biaxial(rep.s_plus, 0.0, Z, X))) + m.b * rep.s_plus**3
    assert abs(f_bulk(fun, q)) < 1e-9 * scale


def test_gl_density_matches_quartic_at_threshold():
    m = mbba()
    quartic = Quartic(m, 44.0)
    gl = GLPenalized(m, 44.0, 0.1)
    s_at = 1.0 / np.sqrt(6.0) / np.sqrt(2.0 / 3.0)  # |Q| = 1/sqrt(6)
    q = QTensor(uniaxial_coeffs(s_at, Z))
    assert f_bulk(gl, q) == f_bulk(quartic, q)
    below = QTensor(0.99 * q.coeffs)
    assert f_bulk(gl, below) == f_bulk(quartic, below)
    above = QTensor(1.01 * q.coeffs)
    assert f_bulk(gl, above) > f_bulk(quartic, above)


def test_gl_density_c1_at_threshold():
    # below the threshold the penalized density and gradient coincide with the
    # quartic ones exactly; above it the mismatch must vanish linearly with
    # the distance to the threshold (C1, not C2)
    m = mbba()
    gl = GLPenalized(m, 44.0, 0.1)
    quartic = Quartic(m, 44.0)
    s_at = 1.0 / np.sqrt(6.0) / np.sqrt(2.0 / 3.0)

    for delta in (0.0, -1e-8, -1e-3):
        q = QTensor(uniaxial_coeffs(s_at * (1 + delta), Z))
        assert f_bulk(gl, q) == f_bulk(quartic, q)
        assert np.array_equal(bulk_gradient(gl, q).coeffs, bulk_gradient(quartic, q).coeffs)

    def mismatches(delta):
        q = QTensor(uniaxial_coeffs(s_at * (1 + delta), Z))
        dv = abs(f_bulk(gl, q) - f_bulk(quartic, q))
        dg = np.abs(bulk_gradient(gl, q).coeffs - bulk_gradient(quartic, q).coeffs).max()
        return dv, dg

    dv4, dg4 = mismatches(1e-4)
    dv6, dg6 = mismatches(1e-6)
    assert dv6 / dv4 == pytest.approx(1e-4, rel=0.05)  # value gap is quadratic
    assert dg6 / dg4 == pytest.approx(1e-2, rel=0.05)  # gradient gap is linear


def test_bulk_gradient_zero_states():
    m = mbba()
    fun = Quartic(m, 44.0)
    assert bulk_gradient(fun, QTensor.zero()).norm == 0.0
    rep = stationary_scalars(m, 44.0)
    for s in (rep.s_plus, rep.s_minus):
        q = QTensor(uniaxial_coeffs(s, Z))
        assert bulk_gradient(fun, q).norm <= 1e-10 * grad_scale(fun, q)


def test_bulk_gradient_matches_finite_differences():
    m = mbba(scale=1e-3)
    poly = Polynomial(a2=-0.3, terms=((0, 1, -1.2), (2, 0, 0.8), (3, 0, 0.05), (0, 2, 0.01)))
    funs = [Quartic(m, 44.0), GLPenalized(m, 44.5, 0.1), poly]
    rng = np.random.default_rng(2)
    h = 1e-6
    for fun in funs:
        worst = 0.0
        for _ in range(1000):
            c = 0.6 * rng.standard_normal(5)
            grad = fun.gradient(c)
            for k in range(5):
                cp, cm = c.copy(), c.copy()
                cp[k] += h
                cm[k] -= h
                fd = (fun.density(cp) - fun.density(cm)) / (2 * h)
                worst = max(worst, abs(grad[k] - fd) / max(abs(fd), 1e-8))
        assert worst < 1e-6, (type(fun).__name__, worst)


SEXTIC = Polynomial(a2=-0.3, terms=((0, 1, -1.2), (2, 0, 0.8), (3, 0, 0.05), (0, 2, 0.01)))
SHAPES = st.one_of(
    st.just(()), st.tuples(st.integers(1, 40)), st.tuples(*[st.integers(1, 4)] * 3)
)


def random_coeffs_shaped(seed, shape, radius):
    """Coefficients of the given leading shape with node norms spread over [0, radius]."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape + (5,))
    norms = np.sqrt((v * v).sum(-1, keepdims=True))
    return v * (radius * rng.random(shape + (1,)) / norms)


def matrix_kernels(a2, terms, coeffs):
    """Density and gradient of a2 trQ2 + sum co trQ2^m trQ3^p on plain 3x3 matrices."""
    q = coeffs_to_matrices(coeffs)
    q2 = q @ q
    tr2 = np.trace(q2, axis1=-2, axis2=-1)
    tr3 = np.einsum("...ij,...ji->...", q2, q)
    dens = a2 * tr2
    dfdq = 2.0 * a2 * q
    for m, p, co in terms:
        dens = dens + co * tr2**m * tr3**p
        if m:
            dfdq = dfdq + (2.0 * m * co * tr2 ** (m - 1) * tr3**p)[..., None, None] * q
        if p:
            dfdq = dfdq + (3.0 * p * co * tr2**m * tr3 ** (p - 1))[..., None, None] * q2
    # the basis is traceless, so this projection drops the trace part of Q^2
    return dens, np.einsum("...ij,cij->...c", dfdq, BASIS)


def kernel_scales(a2, terms, coeffs):
    """Sums of the magnitudes of the density and gradient terms, per node."""
    r = np.sqrt((coeffs * coeffs).sum(-1))
    dens = abs(a2) * r**2
    grad = 2.0 * abs(a2) * r
    for m, p, co in terms:
        d = 2 * m + 3 * p
        dens = dens + abs(co) * r**d
        grad = grad + abs(co) * d * r ** (d - 1)
    return dens + 1e-300, grad + 1e-300


def assert_close(got, expected, scale, rtol=1e-12):
    err = np.abs(got - expected)
    if err.ndim > np.ndim(scale):
        err = err.max(-1)
    assert np.all(err <= rtol * scale), float((err / scale).max())


@settings(max_examples=40, deadline=None)
@given(shape=SHAPES, radius=st.floats(0.01, 10.0), seed=st.integers(0, 2**32 - 1))
def test_square_coeffs_and_invariants_match_matrices(shape, radius, seed):
    c = random_coeffs_shaped(seed, shape, radius)
    q = coeffs_to_matrices(c)
    q2 = q @ q
    r2 = (c * c).sum(-1)
    sq = square_coeffs(c)
    assert sq.shape == c.shape
    assert_close(sq, np.einsum("...ij,cij->...c", q2, BASIS), r2 + 1e-300)
    tr2, tr3 = trace_invariants(c)
    assert np.shape(tr2) == np.shape(tr3) == shape
    assert_close(tr2, np.trace(q2, axis1=-2, axis2=-1), r2 + 1e-300)
    assert_close(tr3, np.einsum("...ij,...ji->...", q2, q), r2**1.5 + 1e-300)


@settings(max_examples=40, deadline=None)
@given(
    shape=SHAPES,
    radius=st.floats(0.01, 3.0),
    t=st.floats(40.0, 50.0),
    eps=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernels_match_matrix_formulation(shape, radius, t, eps, seed):
    m = mbba(scale=1e-3)
    c = random_coeffs_shaped(seed, shape, radius)
    a = a_of_temperature(m, t)
    quartic = (a / 2.0, ((0, 1, -m.b / 3.0), (2, 0, m.c / 4.0)))
    for fun, (a2, terms) in ((Quartic(m, t), quartic), (SEXTIC, (SEXTIC.a2, SEXTIC.terms))):
        dens, grad = matrix_kernels(a2, terms, c)
        dscale, gscale = kernel_scales(a2, terms, c)
        assert_close(fun.density(c), dens, dscale)
        assert_close(fun.gradient(c), grad, gscale)

    gl = GLPenalized(m, t, eps)
    dens, grad, dscale, gscale = gl_matrix_kernels(gl, c)
    assert_close(gl.density(c), dens, dscale)
    assert_close(gl.gradient(c), grad, gscale)


def gl_matrix_kernels(gl, coeffs):
    """``matrix_kernels`` of ``gl`` and their ``kernel_scales``, the penalty included."""
    quartic = gl.quartic
    dens, grad = matrix_kernels(quartic.a2, quartic.terms, coeffs)
    dscale, gscale = kernel_scales(quartic.a2, quartic.terms, coeffs)
    # the penalty adds (|Q|^2 - 1/6)^2 / eps^2 above |Q| = 1/sqrt(6) only
    tr2 = (coeffs * coeffs).sum(-1)
    excess = np.maximum(tr2 - 1.0 / 6.0, 0.0)
    penalty = excess**2 / gl.eps**2
    slope = 4.0 / gl.eps**2 * excess
    return (dens + penalty, grad + slope[..., None] * coeffs,
            dscale + penalty, gscale + slope * np.sqrt(tr2))


# The benchmark's relax-fine density: the T = 44 MBBA quartic (kJ/m^3) plus 0.5 (tr Q^2)^3.
BENCH_SEXTIC = Polynomial(a2=0.5 * 0.42 * (44.0 - 45.0),
                          terms=((0, 1, -6.4 / 3.0), (2, 0, 3.5 / 4.0), (3, 0, 0.5)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 40),
    radius=st.floats(0.01, 3.0),
    t=st.floats(40.0, 50.0),
    eps=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_line_kernel_matches_matrix_formulation_and_the_lift(n, radius, t, eps, seed):
    # On Q = u b, b the unit uniaxial tensor along a director, the kernel with
    # ``square = _line_square`` is the density of Q and b . dF/dQ. The line flow
    # uses it for the coordinate t of Q = t b.
    m = mbba(scale=1e-3)
    rng = np.random.default_rng(seed)
    director = rng.standard_normal(3)
    director /= np.linalg.norm(director)
    unit = uniaxial_coeffs(1.0, director)
    unit /= np.linalg.norm(unit)
    # both signs, and both sides of the GL threshold |Q| = 1/sqrt(6)
    near = np.array([-1.001, -0.999, 0.999, 1.001]) / np.sqrt(6.0)
    u = np.concatenate([radius * rng.uniform(-1.0, 1.0, n), near])
    q = np.multiply.outer(u, unit)  # node-major, as the matrix kernels take it
    gl = GLPenalized(m, t, eps)
    for fun in (Quartic(m, t), BENCH_SEXTIC, gl):
        if fun is gl:
            dens, grad, dscale, gscale = gl_matrix_kernels(gl, q)
        else:
            dens, grad = matrix_kernels(fun.a2, fun.terms, q)
            dscale, gscale = kernel_scales(fun.a2, fun.terms, q)
        got_dens, got_grad = fun.density_and_gradient(u[None], square=_line_square)
        assert got_grad.shape == (1, u.size)
        assert_close(got_dens, dens, dscale)
        assert_close(got_grad[0], grad @ unit, gscale)
        # and the five-component kernel on Q itself, projected on the unit b
        lift_dens, lift_grad = fun.density_and_gradient(q.T)
        assert_close(got_dens, lift_dens, dscale)
        assert_close(got_grad[0], unit @ lift_grad, gscale)


@settings(max_examples=25, deadline=None)
@given(
    shape=SHAPES,
    radius=st.floats(0.01, 3.0),
    t=st.floats(40.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_quartic_is_the_degree4_polynomial(shape, radius, t, seed):
    m = mbba()
    c = random_coeffs_shaped(seed, shape, radius)
    quartic, poly = Quartic(m, t), mbba_quartic_as_polynomial(m, t)
    assert np.array_equal(quartic.density(c), poly.density(c))
    assert np.array_equal(quartic.gradient(c), poly.gradient(c))


def test_gradient_vanishes_only_on_uniaxial_set():
    # dense (s, r) scan away from the lines r=0, s=0, s=r finds no stationary points
    m = mbba()
    fun = Quartic(m, 45.0)
    vals = np.linspace(-1.5, 1.5, 120)
    smallest = np.inf
    for i, s in enumerate(vals):
        for j, r in enumerate(vals):
            if i == j or abs(s) < 1e-9 or abs(r) < 1e-9:
                continue
            g = np.linalg.norm(fun.gradient(make_biaxial(s, r, Z, X).coeffs))
            smallest = min(smallest, g)
    # nearest grid points sit half a spacing off the uniaxial lines; near the
    # (degenerate, a = 0) origin the gradient grows quadratically with that
    # distance, so the floor scales like b * spacing^2
    spacing = vals[1] - vals[0]
    assert smallest > 0.1 * m.b * spacing**2


def test_stationary_scalars_examples():
    m = mbba()
    rep = stationary_scalars(m, 45.0)
    assert rep.s_plus == pytest.approx(m.b / (2 * m.c), rel=1e-14)
    assert rep.s_plus == pytest.approx(0.9142857142857143, rel=1e-12)
    assert rep.s_minus == pytest.approx(0.0, abs=1e-12)
    assert rep.global_min_is_nematic

    t_sh = characteristic_temperatures(m).t_superheat
    rep = stationary_scalars(m, t_sh)
    assert rep.s_plus == pytest.approx(m.b / (4 * m.c), rel=1e-6)
    assert rep.s_plus == pytest.approx(rep.s_minus, rel=1e-6)

    assert stationary_scalars(m, 50.0).s_plus is None
    assert not stationary_scalars(m, 50.0).global_min_is_nematic


def test_stationary_density_ordering_and_uniaxial_slice_derivative():
    m = mbba()
    for t in (40.0, 44.0, 45.0, 45.8, 46.05):
        a = a_of_temperature(m, t)
        rep = stationary_scalars(m, t)
        if rep.s_plus is None:
            continue
        if rep.s_plus != rep.s_minus:
            assert rep.f_at_minus > rep.f_at_plus
        fun = Quartic(m, t)
        for s in np.linspace(-1.2, 1.2, 13):
            h = 1e-6
            fp = f_bulk(fun, QTensor(uniaxial_coeffs(s + h, Z)))
            fm = f_bulk(fun, QTensor(uniaxial_coeffs(s - h, Z)))
            expected = (18 * a * s - 6 * m.b * s * s + 12 * m.c * s**3) / 27
            assert (fp - fm) / (2 * h) == pytest.approx(expected, rel=1e-6, abs=1e-3)


def test_stationary_f_values_match_density():
    m = mbba()
    for t in (43.0, 45.0, 46.0):
        rep = stationary_scalars(m, t)
        fun = Quartic(m, t)
        assert rep.f_at_plus == pytest.approx(
            f_bulk(fun, QTensor(uniaxial_coeffs(rep.s_plus, Z))), rel=1e-10, abs=1e-8
        )


def test_characteristic_temperatures_mbba():
    ct = characteristic_temperatures(mbba())
    assert ct.t_star == 45.0
    assert ct.t_ni == pytest.approx(46.032, abs=1e-3)
    assert ct.t_superheat == pytest.approx(46.161, abs=1e-3)
    assert ct.physical_window[0] == pytest.approx(44.5238095238, abs=1e-9)
    assert ct.physical_window[1] == ct.t_superheat


def test_bulk_triangle_regimes():
    m = mbba()
    assert bulk_triangle(m, 50.0) == [(0.0, 0.0)]

    verts = bulk_triangle(m, 45.0)
    s_plus = stationary_scalars(m, 45.0).s_plus
    assert verts == [(s_plus, 0.0), (0.0, s_plus), (-s_plus, -s_plus)]

    # continuity where the vertex formula switches branch: a = -b^2/3c
    t_switch = 45.0 - m.b * m.b / (3 * m.c) / m.alpha
    lo = bulk_triangle(m, t_switch - 1e-6)
    hi = bulk_triangle(m, t_switch + 1e-6)
    assert lo[0][0] == pytest.approx(hi[0][0], rel=1e-4)
    assert hi[0][0] == pytest.approx(m.b / m.c, rel=1e-4)

    with pytest.raises(RegimeError):
        bulk_triangle(m, -1.0)


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(a2=1.0, terms=((0, 1, 1.0), (2, 0, 1.0)))  # cubic sign
    with pytest.raises(ValueError):
        Polynomial(a2=1.0, terms=((0, 1, -1.0), (2, 0, -1.0)))  # quartic sign
    with pytest.raises(ValueError):
        Polynomial(a2=1.0, terms=((0, 1, -1.0), (2, 0, 1.0), (0, 2, 2.0)))  # dominance
    with pytest.raises(ValueError):
        Polynomial(a2=1.0, terms=((0, 1, -1.0),))  # degree 3
    with pytest.raises(ValueError, match="nonnegative"):
        Polynomial(a2=1.0, terms=((0, 1, -1.0), (2, 0, 1.0), (-1, 2, 1.0)))
    with pytest.raises(ValueError, match=r"duplicate term \(2, 0\)"):
        Polynomial(a2=1.0, terms=((0, 1, -1.0), (2, 0, 1.0), (2, 0, 2.0)))
    with pytest.raises(ValueError, match="at least cubic and quartic"):
        Polynomial(a2=1.0, terms=())
    # valid sextic with a mixed top-degree term
    fun = Polynomial(a2=1.0, terms=((0, 1, -1.0), (2, 0, 1.0), (3, 0, 2.0), (0, 2, 0.5)))
    assert fun.degree == 6


def test_poly_bound_examples():
    m = mbba()
    # matches the explicit quartic bound in the ordered regime
    gamma = (m.b + np.sqrt(m.b**2 - 24 * a_of_temperature(m, 45.0) * m.c)) / (
        2 * np.sqrt(6) * m.c
    )
    assert poly_bound_C(mbba_quartic_as_polynomial(m, 45.0)) == pytest.approx(gamma, rel=1e-10)
    # high temperature: no nonzero root
    assert poly_bound_C(mbba_quartic_as_polynomial(m, 50.0)) == 0.0
    # all-positive sextic
    assert poly_bound_C(Polynomial(a2=1.0, terms=((0, 1, -1.0), (2, 0, 1.0), (3, 0, 2.0)))) == 0.0


def test_poly_bound_double_root():
    # the quartic at a = b^2/24c (1 + d) has a double root at b/(2 sqrt6 c) for
    # d = 0; a double root carries sqrt(ulp) conditioning, hence the loose tolerance
    m = mbba()
    tangent = m.b / (2 * np.sqrt(6) * m.c)
    for d in (0.0, 1e-9, 1e-6, -1e-9):
        a = m.b * m.b / (24.0 * m.c) * (1.0 + d)
        fun = Polynomial(a2=a / 2.0, terms=((0, 1, -m.b / 3.0), (2, 0, m.c / 4.0)))
        if d == 1e-6:  # no real root, and the minimum is far from zero
            expected = 0.0
        elif d < 0.0:  # two real roots 6e-5 apart relative: the larger one
            expected = (m.b + np.sqrt(m.b * m.b - 24.0 * a * m.c)) / (2 * np.sqrt(6) * m.c)
        else:  # at d = 1e-9 no real root, but the minimum is within the tangency rule
            expected = tangent
        assert poly_bound_C(fun) == pytest.approx(expected, rel=1e-6), d


def test_poly_bound_generic_root_against_grid_oracle():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a2 = rng.uniform(-2.0, 0.5)
        a3 = rng.uniform(0.2, 2.0)
        a4 = rng.uniform(0.2, 2.0)
        a6 = rng.uniform(0.05, 1.0)
        fun = Polynomial(a2=a2, terms=((0, 1, -a3), (2, 0, a4), (3, 0, a6)))
        # the same minorant over u^2, written out by hand
        coeffs = np.zeros(5)
        coeffs[0] = 2 * a2
        coeffs[1] = -3 * a3 / np.sqrt(6)
        coeffs[2] = 4 * a4
        coeffs[4] = 6 * a6
        # independent locator: the sign of the minorant on a dense grid up to the
        # Cauchy bound, above which it has no root
        cauchy = 1.0 + np.max(np.abs(coeffs[:-1])) / coeffs[-1]
        grid, h = np.linspace(0.0, cauchy, 100_001, retstep=True)
        vals = np.polyval(coeffs[::-1], grid)
        bound = poly_bound_C(fun)
        assert (bound == 0.0) == bool((vals > 0.0).all())
        if bound > 0.0:
            assert (vals[grid > bound] > 0.0).all()
            # a sign change within one grid step below, or a zero at the bound
            assert (vals[np.abs(grid - bound) <= h] <= 0.0).any()


def test_gl_bound_limits_and_value():
    m = mbba()
    inv6 = 1.0 / np.sqrt(6.0)
    assert gl_bound(m, 44.0, 1e-8) == pytest.approx(inv6, abs=1e-10)
    assert gl_bound(m, 44.0, 0.05) >= inv6
    with pytest.raises(ValueError):
        gl_bound(m, 44.0, 0.0)
    for eps in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="eps must be positive"):
            GLPenalized(m, 44.0, eps)
    # weak-penalty limit approaches the unpenalized bound from below
    strong = gl_bound(m, 44.0, 50.0)
    gamma = (m.b + np.sqrt(m.b**2 - 24 * a_of_temperature(m, 44.0) * m.c)) / (
        2 * np.sqrt(6) * m.c
    )
    assert strong == pytest.approx(gamma, rel=1e-2)


@pytest.mark.parametrize("eps", [0.5, 1.0])
def test_gl_bound_at_every_temperature(eps):
    # the radicand of the closed form turns negative from T = 52 at eps = 0.5 and
    # from T = 47.5 at eps = 1; the penalized minorant then has no root above
    # 1/sqrt(6), and the bound is 1/sqrt(6)
    m = mbba(scale=1e-3)
    bounds = [gl_bound(m, t, eps) for t in np.arange(45.0, 60.25, 0.5)]
    assert all(np.isfinite(bounds))
    assert min(bounds) >= 1.0 / np.sqrt(6.0)
    assert all(hi >= lo for hi, lo in zip(bounds, bounds[1:]))
    assert bounds[0] > 1.0 / np.sqrt(6.0) and bounds[-1] == 1.0 / np.sqrt(6.0)
