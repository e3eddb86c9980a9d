"""Acceptance suite: one test per release criterion, each printing a pass line.

Temperature and bound formulas are evaluated with the published MBBA
constants in J/m^3. Solver runs use the same constants expressed in kJ/m^3
with unit grid spacing and a unit elastic constant: the stationary points,
characteristic temperatures, and norm bounds are invariant under that common
rescaling, and the explicit flow is well-conditioned at order-one magnitudes.
"""

import time

import numpy as np
import pytest

from conftest import Z, mbba, mbba_quartic_as_polynomial
from ldgq import (
    GLPenalized,
    Quartic,
    audit_field,
    biaxiality,
    characteristic_temperatures,
    eigenvalues_desc,
    elastic_bound_gamma,
    gl_bound,
    poly_bound_C,
    stationary_scalars,
    trace_invariants,
    triangle_report,
    uniaxial_coeffs,
)
from ldgq.moments import (
    build_quadrature,
    distribution_from_values,
    q_from_psi,
    uniform_distribution,
    watson_distribution,
)
from ldgq.qtensor import QTensor, matrices_to_coeffs
from ldgq.solver import (
    Grid3,
    QField,
    SolverConfig,
    discrete_energy,
    el_residual,
    harmonic_interior,
    minimize,
    minimize_on_subspace,
)


def _passline(num, budget, t0, detail):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {num:>2} PASS ({elapsed:6.2f}s < {budget}s) {detail}")
    assert elapsed < budget


def _boundary_field(grid, s0, director=Z):
    bvals = np.broadcast_to(uniaxial_coeffs(s0, director), grid.shape + (5,)).copy()
    return harmonic_interior(QField.from_boundary(grid, bvals))


def test_criterion_01_mbba_physicality_crossing():
    t0 = time.time()
    m = mbba()
    window_low = characteristic_temperatures(m).physical_window[0]
    crossing_low = triangle_report(m, 45.0).crossing_temps[0]
    # independent location of s_plus(T) = 1 by bisection
    lo, hi = 40.0, 46.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if stationary_scalars(m, mid).s_plus > 1.0:
            lo = mid
        else:
            hi = mid
    t_unit = 0.5 * (lo + hi)
    assert abs(window_low - 44.52) <= 0.05
    assert abs(crossing_low - 44.52) <= 0.05
    assert abs(t_unit - window_low) <= 1e-9
    _passline(1, 1.0, t0, f"s_plus = 1 at T = {window_low:.4f} C (target 44.52 +- 0.05)")


def test_criterion_02_mbba_transition_temperature():
    t0 = time.time()
    m = mbba()
    t_ni = characteristic_temperatures(m).t_ni
    assert abs(t_ni - 46.0) <= 0.1
    # the ordered branch energy crosses zero there
    rep = stationary_scalars(m, t_ni)
    assert abs(rep.f_at_plus) < 1e-6 * m.b
    _passline(2, 1.0, t0, f"t_ni = {t_ni:.4f} C (target 46.0 +- 0.1)")


def test_criterion_03_biaxiality_range_and_identity():
    t0 = time.time()
    rng = np.random.default_rng(101)
    n = 100_000
    coeffs = rng.standard_normal((n, 5))
    radii = 10.0 * rng.random((n, 1)) ** 0.5
    coeffs *= radii / np.sqrt((coeffs * coeffs).sum(-1, keepdims=True))

    tr2, tr3 = trace_invariants(coeffs)
    beta = 1.0 - 6.0 * tr3 * tr3 / tr2**3
    assert beta.min() >= -1e-12
    assert beta.max() <= 1.0 + 1e-12

    lam = eigenvalues_desc(coeffs)
    s = lam[:, 0] - lam[:, 2]
    r = lam[:, 1] - lam[:, 2]
    lhs = tr2**3 - 6.0 * tr3 * tr3
    rhs = 2.0 * (s * r * (s - r)) ** 2
    rel = np.abs(lhs - rhs) / tr2**3
    assert rel.max() <= 1e-10

    # the scalar API computes the same quantity
    for row in coeffs[:: n // 50]:
        q = QTensor(row)
        t2, t3 = trace_invariants(row)
        assert biaxiality(q) == pytest.approx(1.0 - 6.0 * t3 * t3 / t2**3, abs=1e-14)
    _passline(3, 5.0, t0, f"beta in [0,1] and norm identity on {n} tensors (rel <= 1e-10)")


def test_criterion_04_stationary_points_are_uniaxial():
    t0 = time.time()
    m = mbba()
    fun = Quartic(m, 45.0)
    vals = np.linspace(-1.5, 1.5, 200)  # avoids s = 0 and r = 0 exactly
    base_n = matrices_to_coeffs(np.outer(Z, Z) - np.eye(3) / 3.0)
    x = np.array([1.0, 0.0, 0.0])
    base_m = matrices_to_coeffs(np.outer(x, x) - np.eye(3) / 3.0)
    s_grid, r_grid = np.meshgrid(vals, vals, indexing="ij")
    coeffs = s_grid[..., None] * base_n + r_grid[..., None] * base_m
    grads = fun.gradient(coeffs.reshape(-1, 5)).reshape(200, 200, 5)
    norms = np.sqrt((grads * grads).sum(-1))
    off_diagonal = ~np.eye(200, dtype=bool)  # excludes the s = r uniaxial line
    smallest = norms[off_diagonal].min()

    # the gradient vanishes at the uniaxial stationary points themselves
    sp = stationary_scalars(m, 45.0).s_plus
    at_sp = np.linalg.norm(fun.gradient(uniaxial_coeffs(sp, Z)))
    assert at_sp <= 1e-10 * m.b

    # grid-resolved margin: nearest off-line points sit half a spacing from
    # the degenerate origin, where the gradient grows like b * distance^2
    spacing = vals[1] - vals[0]
    margin = 0.1 * m.b * spacing**2
    assert smallest > margin
    _passline(4, 5.0, t0, f"min |grad| off the uniaxial set = {smallest:.3f} > {margin:.3f}")


def test_criterion_05_gradient_consistency_all_variants():
    t0 = time.time()
    m = mbba(scale=1e-3)
    variants = {
        "quartic": (Quartic(m, 44.5), 4e-6),
        "polynomial": (mbba_quartic_as_polynomial(m, 44.5), 4e-6),
        "gl": (GLPenalized(m, 44.5, 0.1), 1e-5),
    }
    grid = Grid3(5, 6, 5, 0.9, 1.0, 1.2)
    rng = np.random.default_rng(202)
    field = QField(grid, 0.35 * rng.standard_normal(grid.shape + (5,)))
    for name, (fun, h) in variants.items():
        cfg = SolverConfig(functional=fun, elastic_l=m.elastic_l)
        res = el_residual(field, cfg)
        checked = 0
        worst = 0.0
        for _ in range(200):
            i = rng.integers(1, grid.nx - 1)
            j = rng.integers(1, grid.ny - 1)
            k = rng.integers(1, grid.nz - 1)
            if name == "gl":
                t2 = field.values[i, j, k] @ field.values[i, j, k]
                if abs(t2 - 1 / 6) < 8 * h:  # central differences degrade at the C1 kink
                    continue
            ref = np.empty(5)
            for c in range(5):
                vp = field.values.copy()
                vm = field.values.copy()
                vp[i, j, k, c] += h
                vm[i, j, k, c] -= h
                fd = (
                    discrete_energy(field.with_values(vp), cfg)
                    - discrete_energy(field.with_values(vm), cfg)
                ) / (2 * h)
                ref[c] = -fd / grid.node_volume
            # per-node comparison of the full five-component gradient vector
            rel = np.linalg.norm(res[i, j, k] - ref) / np.linalg.norm(ref)
            worst = max(worst, rel)
            checked += 1
            if checked >= 60:
                break
        assert checked >= 50, name
        assert worst <= 1e-6, (name, worst)
    _passline(5, 30.0, t0, "residual matches energy finite differences (rel <= 1e-6)")


def test_criterion_06_low_temperature_norm_bound():
    t0 = time.time()
    m = mbba(scale=1e-3)
    grid = Grid3(17, 17, 17, 1.0, 1.0, 1.0)
    details = []
    for t in (44.0, 45.0, 45.5):
        sp = stationary_scalars(m, t).s_plus
        s0 = 0.9 * min(sp, 1.0)
        init = _boundary_field(grid, s0)
        cfg = SolverConfig(functional=Quartic(m, t), elastic_l=m.elastic_l, tol_residual=1e-7)
        final, report = minimize(init, cfg)
        assert report.converged
        gamma = elastic_bound_gamma(m, t)
        max_norm = float(final.norms().max())
        assert max_norm <= gamma * (1.0 + 1e-3)
        audit = audit_field(final, cfg.functional)
        assert audit.satisfied and audit.regime == "LowTemp"
        details.append(f"T={t}: max|Q|/Gamma={max_norm / gamma:.6f}")
    _passline(6, 120.0, t0, "; ".join(details))


def test_criterion_07_high_temperature_boundary_maximum():
    t0 = time.time()
    m = mbba(scale=1e-3)
    t = 50.0
    grid = Grid3(17, 17, 17, 1.0, 1.0, 1.0)
    s0 = 0.3 / np.sqrt(2.0 / 3.0)  # boundary norm |Q0| = 0.3
    init = _boundary_field(grid, s0)
    cfg = SolverConfig(functional=Quartic(m, t), elastic_l=m.elastic_l, tol_residual=1e-9)
    final, report = minimize(init, cfg)
    assert report.converged
    norms = final.norms()
    interior_max = float(norms[~final.boundary_mask].max())
    boundary_max = float(norms[final.boundary_mask].max())
    assert boundary_max == pytest.approx(0.3, rel=1e-12)
    assert interior_max <= boundary_max + 1e-8
    audit = audit_field(final, cfg.functional)
    assert audit.satisfied and audit.regime == "HighTemp" and audit.hypothesis_met
    _passline(7, 60.0, t0, f"interior max {interior_max:.6f} <= boundary max {boundary_max:.6f}")


def test_criterion_08_penalized_bound_and_eps_scaling():
    t0 = time.time()
    m = mbba(scale=1e-3)
    t = 43.0
    inv6 = 1.0 / np.sqrt(6.0)
    grid = Grid3(17, 17, 17, 1.0, 1.0, 1.0)
    s0 = 0.35 / np.sqrt(2.0 / 3.0)  # boundary norm 0.35 < 1/sqrt(6)
    # iterations, fallbacks, rejected steps, dt_final and final energy of the flow
    recorded = {0.1: (13, 2, 4, 0.026451249476623855, -469.13469878490775),
                0.05: (26, 10, 7, 0.003306406184577982, -466.7895386938621)}
    for eps, (iterations, fallbacks, rejected, dt_final, energy) in recorded.items():
        fun = GLPenalized(m, t, eps)
        cfg = SolverConfig(functional=fun, elastic_l=m.elastic_l, tol_residual=1e-7)
        final, report = minimize(_boundary_field(grid, s0), cfg)
        assert report.converged and report.iterations <= 30
        assert (report.iterations, report.fallbacks, report.rejected_steps, report.dt_final) == (
            iterations, fallbacks, rejected, dt_final)
        assert report.final_energy == pytest.approx(energy, rel=1e-12, abs=0.0)
        bound = gl_bound(m, t, eps)
        max_norm = float(final.norms().max())
        assert max_norm <= bound + 1e-3
        audit = audit_field(final, fun)
        assert audit.satisfied and audit.regime == "GL" and audit.hypothesis_met

    # eps scaling of the bound itself. The deviation gl_bound - 1/sqrt(6)
    # vanishes at least linearly (the per-eps ratio never grows as eps
    # shrinks); the bound formula is even in eps, so the deviation actually
    # follows a clean quadratic power law, checked as a stable ratio under
    # successive halvings of eps.
    eps_sweep = (0.2, 0.1, 0.05, 0.025)
    deltas = [gl_bound(m, t, e) - inv6 for e in eps_sweep]
    assert all(d >= 0.0 for d in deltas)
    linear_ratios = [d / e for d, e in zip(deltas, eps_sweep)]
    assert all(r <= linear_ratios[0] * (1 + 1e-12) for r in linear_ratios)
    halving_ratios = [d1 / d2 for d1, d2 in zip(deltas, deltas[1:])]
    spread = max(halving_ratios) / min(halving_ratios) - 1.0
    assert spread < 0.25
    _passline(
        8, 120.0, t0,
        f"max|Q| <= gl_bound + 1e-3; eps-halving ratios {[f'{r:.3f}' for r in halving_ratios]} "
        f"(spread {100 * spread:.1f}% < 25%)",
    )


def test_criterion_09_fixed_director_scalar_bounds():
    # the line of the director, Q = s (n x n - I/3), from the harmonic start as
    # `ldgq minimize` relaxes it; s = Q.B/|B|^2 with B = uniaxial_coeffs(1, n)
    t0 = time.time()
    m = mbba(scale=1e-3)
    t = 45.0
    sp = stationary_scalars(m, t).s_plus
    s0 = 0.5 * min(sp, 1.0)
    assert 0.0 < s0 < min(sp, 1.0)  # the paper's hypothesis on the data
    grid = Grid3(17, 17, 17, 1.0, 1.0, 1.0)
    cfg = SolverConfig(functional=Quartic(m, t), elastic_l=m.elastic_l, tol_residual=1e-8)
    final, report = minimize_on_subspace(_boundary_field(grid, s0), (Z,), cfg)
    assert report.converged
    base = uniaxial_coeffs(1.0, Z)
    s_field = final.values @ base / (base @ base)
    assert s_field.min() >= -1e-6
    assert s_field.max() <= sp * (1.0 + 1e-3)
    _passline(9, 30.0, t0, f"s in [{s_field.min():.4f}, {s_field.max():.6f}], s_plus = {sp:.6f}")


def test_criterion_10_moment_oracle():
    t0 = time.time()
    quad = build_quadrature(8)
    rng = np.random.default_rng(303)
    worst_hi, worst_lo = -np.inf, -np.inf
    for _ in range(10_000):
        psi = distribution_from_values(quad, rng.random(quad.weights.size))
        lam = eigenvalues_desc(q_from_psi(psi, quad).coeffs)
        worst_hi = max(worst_hi, float(lam[0]) - 2.0 / 3.0)
        worst_lo = max(worst_lo, -1.0 / 3.0 - float(lam[2]))
    assert worst_hi <= 1e-8
    assert worst_lo <= 1e-8

    iso = q_from_psi(uniform_distribution(quad), quad)
    assert iso.norm < 1e-10

    fine = build_quadrature(48)
    prev = -np.inf
    for kappa in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0):
        q = q_from_psi(watson_distribution(fine, Z, kappa), fine)
        lam_max = float(eigenvalues_desc(q.coeffs)[0])
        assert lam_max > prev
        assert lam_max < 2.0 / 3.0
        prev = lam_max
    _passline(
        10, 30.0, t0,
        f"10^4 densities within bounds (worst excess {max(worst_hi, worst_lo):.1e}); "
        f"lam_max -> {prev:.4f} monotonically",
    )


def test_criterion_11_bound_formula_cross_check():
    t0 = time.time()
    m = mbba()
    worst = 0.0
    for t in np.linspace(40.0, 46.1, 100):
        gamma = elastic_bound_gamma(m, t)
        c_val = poly_bound_C(mbba_quartic_as_polynomial(m, t))
        worst = max(worst, abs(c_val - gamma) / gamma)
    assert worst <= 1e-10
    _passline(11, 1.0, t0, f"gamma vs polynomial bound: worst rel diff {worst:.2e} <= 1e-10")


def test_criterion_13_grid_refinement_on_the_line():
    # A box of side 32 at h = 4, 2, 1, 0.5 (9^3 to 65^3): the line minimizers' max|Q|
    # rises toward Gamma from below, and the energy converges at first order in h,
    # since the rectangle rule gives the six face layers full cell weight.
    t0 = time.time()
    m = mbba(scale=1e-3)
    t = 44.0
    gamma = elastic_bound_gamma(m, t)
    s0 = 0.9 * min(stationary_scalars(m, t).s_plus, 1.0)
    cfg = SolverConfig(functional=Quartic(m, t), elastic_l=m.elastic_l, tol_residual=1e-9)
    norms, energies = [], []
    for h in (4.0, 2.0, 1.0, 0.5):
        n = round(32.0 / h) + 1
        final, report = minimize_on_subspace(
            _boundary_field(Grid3(n, n, n, h, h, h), s0), (Z,), cfg)
        assert report.converged
        norms.append(float(final.norms()[~final.boundary_mask].max()))
        energies.append(report.final_energy)
    assert all(a < b for a, b in zip(norms, norms[1:])) and norms[-1] < gamma
    diffs = np.diff(energies)
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert np.all((0.9 <= orders) & (orders <= 1.3))
    _passline(13, 5.0, t0, f"max|Q| {norms[0]:.10f} -> {norms[-1]:.10f} < Gamma = {gamma:.10f}; "
              f"energy orders {orders[0]:.3f}, {orders[1]:.3f}")
