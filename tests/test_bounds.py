import numpy as np
import pytest

from conftest import Z, mbba, mbba_quartic_as_polynomial
from ldgq import (
    GLPenalized,
    Material,
    Quartic,
    RegimeError,
    audit_field,
    characteristic_temperatures,
    elastic_bound_gamma,
    gl_bound,
    poly_bound_C,
    stationary_columns,
    triangle_columns,
    uniaxial_coeffs,
)
from ldgq.bounds import norm_bound, triangle_scale
from ldgq.solver import Grid3, QField


def test_norm_bound_rejects_an_unsupported_functional():
    with pytest.raises(TypeError, match="unsupported functional object"):
        norm_bound(object(), 0.1)


def test_gamma_examples_and_identity():
    m = mbba()
    sp = stationary_columns(m, 45.0).s_plus
    gamma = elastic_bound_gamma(m, 45.0)
    assert gamma == pytest.approx(np.sqrt(2 / 3) * sp, rel=1e-14)
    # at the regime edge the discriminant vanishes, so gamma approaches
    # b/(2 sqrt6 c) with sqrt(deltaT) sensitivity
    t_sh = characteristic_temperatures(m).t_superheat
    assert elastic_bound_gamma(m, t_sh - 1e-9) == pytest.approx(
        m.b / (2 * np.sqrt(6) * m.c), rel=1e-4
    )
    with pytest.raises(RegimeError):
        elastic_bound_gamma(m, 50.0)
    # identity holds across the regime
    for t in np.linspace(40.0, 46.1, 25):
        sp = stationary_columns(m, t).s_plus
        assert elastic_bound_gamma(m, t) / sp == pytest.approx(np.sqrt(2 / 3), rel=1e-14)


def test_gamma_matches_polynomial_bound():
    m = mbba()
    for t in np.linspace(40.0, 46.1, 30):
        gamma = elastic_bound_gamma(m, t)
        c_val = poly_bound_C(mbba_quartic_as_polynomial(m, t))
        assert c_val == pytest.approx(gamma, rel=1e-10)


def test_gamma_strictly_decreasing_in_temperature():
    m = mbba()
    ts = np.linspace(40.0, 46.15, 60)
    gammas = [elastic_bound_gamma(m, t) for t in ts]
    assert all(g1 > g2 for g1, g2 in zip(gammas, gammas[1:]))


def test_triangle_columns_crossings_mbba():
    m = mbba()
    rep = triangle_columns(m, 45.0)
    assert rep.crossing_temps[0] == pytest.approx(44.5238095238, abs=1e-9)
    assert rep.crossing_temps[1] == pytest.approx(45.0 + 2900.0 / 2520.0, abs=1e-9)

    # below the lower crossing the elastic triangle family covers T_psi
    low = triangle_columns(m, 44.0)
    assert low.elastic_contains_t_psi and not low.t_psi_contains_elastic
    # between the crossings neither containment holds
    mid = triangle_columns(m, 46.0)
    assert not mid.elastic_contains_t_psi and not mid.t_psi_contains_elastic
    # inside the narrow upper window the elastic triangle fits in T_psi
    inside = triangle_columns(m, 46.155)
    assert inside.t_psi_contains_elastic and not inside.elastic_contains_t_psi
    # above the superheat temperature the triangle degenerates (gamma NaN)
    high = triangle_columns(m, 48.0)
    assert np.isnan(high.gamma) and np.isnan(high.elastic_scale)
    assert high.t_psi_contains_elastic and not high.elastic_contains_t_psi
    assert not high.nematic


def test_lower_crossing_equals_unit_s_plus_temperature():
    # the temperature where s_plus = 1 and the lower crossing both solve
    # a = (b - 2c)/3; locate the former by bisection on s_plus(T) - 1
    m = mbba()
    lo, hi = 40.0, 46.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if stationary_columns(m, mid).s_plus > 1.0:
            lo = mid
        else:
            hi = mid
    t_unit = 0.5 * (lo + hi)
    assert abs(t_unit - triangle_columns(m, 45.0).crossing_temps[0]) < 1e-10


def test_triangle_columns_contain_bulk_triangle():
    m = mbba()
    for t in (35.0, 40.0, 44.0, 45.0, 46.0):
        rep = triangle_columns(m, t)
        eta = float(rep.bulk_scale)
        bulk_scale = max(triangle_scale(s, r) for s, r in ((eta, 0.0), (0.0, eta), (-eta, -eta)))
        elastic_scale = np.sqrt(6) * rep.gamma
        assert bulk_scale <= elastic_scale * (1 + 1e-12)


def test_gl_bound_eps_sweep_bounded_ratio():
    m = mbba(scale=1e-3)
    inv6 = 1.0 / np.sqrt(6.0)
    eps_values = (0.2, 0.1, 0.05, 0.025)
    deltas = [gl_bound(m, 44.0, e) - inv6 for e in eps_values]
    ratios = [d / e for d, e in zip(deltas, eps_values)]
    assert all(d >= 0.0 for d in deltas)
    # the deviation vanishes at least linearly: the per-eps ratio never grows
    assert all(r <= ratios[0] * (1 + 1e-12) for r in ratios)


def _constant_field(grid, s, director=Z):
    return QField.constant(grid, uniaxial_coeffs(s, director))


def test_audit_constant_bulk_minimizer_low_temp():
    m = mbba(scale=1e-3)
    t = 44.0
    sp = stationary_columns(m, t).s_plus
    grid = Grid3(5, 5, 5, 1.0, 1.0, 1.0)
    field = _constant_field(grid, sp)
    audit = audit_field(field, Quartic(m, t))
    gamma = elastic_bound_gamma(m, t)
    assert audit.regime == "LowTemp"
    assert audit.satisfied
    assert audit.max_interior_norm == pytest.approx(gamma, rel=1e-14)
    assert audit.bound_value == pytest.approx(gamma, rel=1e-14)
    assert not audit.hypothesis_met  # the boundary datum sits at the bound itself


def test_audit_zero_field_high_temp():
    m = mbba(scale=1e-3)
    grid = Grid3(4, 4, 4, 1.0, 1.0, 1.0)
    field = _constant_field(grid, 0.0)
    audit = audit_field(field, Quartic(m, 50.0))
    assert audit.regime == "HighTemp"
    assert audit.satisfied
    assert audit.max_interior_norm == 0.0
    assert audit.hypothesis_met


def test_audit_flags_scaled_interior_node():
    m = mbba(scale=1e-3)
    t = 44.0
    sp = stationary_columns(m, t).s_plus
    grid = Grid3(5, 5, 5, 1.0, 1.0, 1.0)
    field = _constant_field(grid, 0.9 * sp)
    values = field.values.copy()
    values[2, 3, 2] *= 3.0
    tampered = field.with_values(values)
    audit = audit_field(tampered, Quartic(m, t))
    assert not audit.satisfied
    assert audit.worst_site == (2, 3, 2)


def test_audit_regimes_polynomial_and_gl():
    m = mbba(scale=1e-3)
    t = 44.0
    grid = Grid3(4, 4, 4, 1.0, 1.0, 1.0)
    field = _constant_field(grid, 0.3)
    poly = mbba_quartic_as_polynomial(m, t)
    audit = audit_field(field, poly)
    assert audit.regime == "Polynomial"
    assert audit.bound_value == pytest.approx(elastic_bound_gamma(m, t), rel=1e-10)
    gl = GLPenalized(m, t, 0.1)
    audit = audit_field(field, gl)
    assert audit.regime == "GL"
    assert audit.bound_value == pytest.approx(gl_bound(m, t, 0.1), rel=1e-14)
    assert audit.hypothesis_met  # |Q0| = 0.3 < 1/sqrt(6)


# b^2 - 24ac < 0 and a > b^2/24c disagree in the last bit at these points:
# the first is on the isotropic side of the discriminant, the second on the
# nematic side (there s_plus = s_minus).
ULP_EDGE_CASES = [
    (Material(alpha=0.10177217965864147, b=7.214315690817775, c=6.554628592248281,
              t_star=123.26021659785275, elastic_l=1.0), 126.5111036412607, False),
    (Material(alpha=0.27444987193445824, b=8.90807066860678, c=0.8802236004565646,
              t_star=103.45701229832862, elastic_l=1.0), 117.1437525276159, True),
]


@pytest.mark.parametrize("m, t, nematic", ULP_EDGE_CASES)
def test_one_superheating_test_everywhere(m, t, nematic):
    rep = stationary_columns(m, t)
    tri = triangle_columns(m, t)
    audit = audit_field(_constant_field(Grid3(3, 3, 3, 1.0, 1.0, 1.0), 0.0), Quartic(m, t))
    assert bool(np.isnan(rep.s_plus)) is not nematic
    assert bool(np.isnan(tri.gamma)) is not nematic
    assert audit.regime == ("LowTemp" if nematic else "HighTemp")
    if nematic:
        sp = rep.s_plus
        assert tri.bulk_scale == sp
        assert elastic_bound_gamma(m, t) == tri.gamma == audit.bound_value
    else:
        assert not tri.nematic and np.isnan(tri.elastic_scale)
        with pytest.raises(RegimeError, match="norm bound undefined"):
            elastic_bound_gamma(m, t)
