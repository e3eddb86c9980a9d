import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import X, Y, Z, mbba
from ldgq import (
    DivergenceError,
    FieldFormatError,
    FrameError,
    GLPenalized,
    Polynomial,
    Quartic,
    a_of_temperature,
    make_biaxial,
    rotate_coeffs,
    stationary_columns,
    uniaxial_coeffs,
)
from ldgq import cli, elastic_bound_gamma, solver
from ldgq.qtensor import BASIS, coeffs_to_matrices, square_coeffs
from ldgq.solver import (
    Grid3,
    QField,
    SolverConfig,
    _face_mask,
    _read_header,
    _read_node_lines,
    _shifted_solver,
    discrete_energy,
    el_residual,
    harmonic_interior,
    minimize,
    read_field,
    write_field,
)


def quartic_cfg(t=44.5, **kw):
    m = mbba(scale=1e-3)
    return m, SolverConfig(functional=Quartic(m, t), elastic_l=m.elastic_l, **kw)


def uniform_boundary_field(grid, s, director=Z):
    bvals = np.broadcast_to(uniaxial_coeffs(s, director), grid.shape + (5,)).copy()
    return QField.from_boundary(grid, bvals)


def scalar_order(field, director):
    """s of a field on the director's line, Q = s B: Q.B/|B|^2 with B = uniaxial_coeffs(1, n)."""
    base = uniaxial_coeffs(1.0, director)
    return field.values @ base / (base @ base)


_GRID3 = Grid3(3, 3, 3, 1.0, 1.0, 1.0)
_QUARTIC = Quartic(mbba(scale=1e-3), 44.0)


@pytest.mark.parametrize("make, message", [
    (lambda: QField(_GRID3, np.zeros((3, 3, 4, 5))), r"shape \(3, 3, 4, 5\) does not match"),
    (lambda: QField(_GRID3, np.full((3, 3, 3, 5), np.inf)), "field values must be finite"),
    (lambda: SolverConfig(functional=_QUARTIC, elastic_l=0.0), "elastic_l must be positive"),
    (lambda: SolverConfig(functional=_QUARTIC, elastic_l=1.0, tol_residual=float("nan")),
     "tol_residual must be positive"),
    (lambda: SolverConfig(functional=_QUARTIC, elastic_l=1.0, max_iters=-1),
     "max_iters must be nonnegative"),
])
def test_field_and_config_validation(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3(2, 5, 5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid3(5, 5, 5, 0.0, 1.0, 1.0)
    # spacings whose 1/h^2 or node volume leaves the float range
    for h in (float("nan"), float("inf"), 1e308, 1e-200, 1e-160):
        with pytest.raises(ValueError):
            Grid3(5, 5, 5, 1.0, h, 1.0)
    with pytest.raises(ValueError, match="node volume"):
        Grid3(5, 5, 5, 1e150, 1e150, 1e150)
    g = Grid3(4, 5, 6, 0.5, 1.0, 2.0)
    assert g.node_volume == 1.0


def test_energy_constant_field():
    m, cfg = quartic_cfg(t=44.5)
    sp = stationary_columns(m, 44.5).s_plus
    grid = Grid3(6, 5, 4, 1.0, 0.5, 2.0)
    field = QField.constant(grid, uniaxial_coeffs(sp, Z))
    fB = cfg.functional.density(uniaxial_coeffs(sp, Z))
    expected = grid.nx * grid.ny * grid.nz * grid.node_volume * fB
    assert discrete_energy(field, cfg) == pytest.approx(expected, rel=1e-13)
    assert expected < 0.0  # ordered state beats isotropic below the transition


def test_energy_linear_ramp_elastic_part():
    # uniaxial s(x) = s0 x / Lx with fixed director: |grad Q|^2 = (2/3)(s0/Lx)^2,
    # constant on every x edge, so the edge quadrature is exact
    m, cfg = quartic_cfg()
    grid = Grid3(9, 6, 5, 0.7, 1.1, 0.9)
    s0, lx = 0.4, (grid.nx - 1) * grid.hx
    xs = np.arange(grid.nx) * grid.hx
    svals = np.broadcast_to((s0 * xs / lx)[:, None, None], grid.shape)
    field = QField(grid, uniaxial_coeffs(svals, Z))
    bulk = grid.node_volume * float(np.sum(cfg.functional.density(field.values)))
    elastic = discrete_energy(field, cfg) - bulk
    n_x_edges = (grid.nx - 1) * grid.ny * grid.nz
    expected = cfg.elastic_l * (2 / 3) * (s0 / lx) ** 2 * n_x_edges * grid.node_volume
    assert elastic == pytest.approx(expected, rel=1e-12)


def test_residual_constant_fields():
    m, cfg = quartic_cfg(t=44.5)
    sp = stationary_columns(m, 44.5).s_plus
    grid = Grid3(5, 5, 5, 1.0, 1.0, 1.0)

    stationary = QField.constant(grid, uniaxial_coeffs(sp, Z))
    res = el_residual(stationary, cfg)
    assert np.abs(res).max() <= 1e-10 * (abs(cfg.functional.a) + m.b + m.c)

    off = QField.constant(grid, uniaxial_coeffs(0.5 * sp, Z))
    res = el_residual(off, cfg)
    grad = cfg.functional.gradient(off.values[2, 2, 2])
    interior = ~off.boundary_mask
    assert np.allclose(res[interior], -grad, atol=1e-14)
    assert np.all(res[off.boundary_mask] == 0.0)


@pytest.mark.parametrize("variant", ["quartic", "gl", "poly"])
def test_residual_is_exact_energy_gradient(variant):
    # master consistency check: the residual is the scaled negative gradient
    # of the discrete energy. The grid is kept small and the penalized
    # variant gets a larger step, because the oracle's accuracy is limited by
    # roundoff cancellation proportional to the total energy magnitude.
    from conftest import mbba_quartic_as_polynomial

    m = mbba(scale=1e-3)
    fun = {
        "quartic": Quartic(m, 44.5),
        "gl": GLPenalized(m, 44.5, 0.1),
        "poly": mbba_quartic_as_polynomial(m, 44.5),
    }[variant]
    cfg = SolverConfig(functional=fun, elastic_l=m.elastic_l)
    grid = Grid3(5, 6, 5, 0.9, 1.0, 1.2)
    rng = np.random.default_rng(4)
    field = QField(grid, 0.35 * rng.standard_normal(grid.shape + (5,)))
    res = el_residual(field, cfg)
    h = 1e-5 if variant == "gl" else 4e-6
    checked = 0
    for _ in range(120):
        i = rng.integers(1, grid.nx - 1)
        j = rng.integers(1, grid.ny - 1)
        k = rng.integers(1, grid.nz - 1)
        c = rng.integers(0, 5)
        if variant == "gl":
            t2 = field.values[i, j, k] @ field.values[i, j, k]
            if abs(t2 - 1 / 6) < 8 * h:  # fd oracle degrades at the C1 kink
                continue
        vp = field.values.copy()
        vm = field.values.copy()
        vp[i, j, k, c] += h
        vm[i, j, k, c] -= h
        fd = (
            discrete_energy(field.with_values(vp), cfg)
            - discrete_energy(field.with_values(vm), cfg)
        ) / (2 * h)
        ref = -fd / grid.node_volume
        assert res[i, j, k, c] == pytest.approx(ref, rel=1e-6, abs=1e-8)
        checked += 1
    assert checked >= 60


def matrix_energy_and_residual(values, grid, fun, elastic_l):
    """Energy and residual of a (nx, ny, nz, 5) field on plain 3x3 matrices.

    The density from tr Q^2 and tr Q^3 of Q = coeffs_to_matrices(values), the
    elastic energy from the Frobenius edge sum, and the residual 2 L lap_h Q minus
    the traceless part of the matrix derivative dF/dQ, zero on the faces. Each comes
    with the sum of the magnitudes of its terms, the scale of its roundoff.
    """
    q = coeffs_to_matrices(values)
    q2 = q @ q
    tr2 = np.trace(q2, axis1=-2, axis2=-1)
    tr3 = np.einsum("...ij,...ji->...", q2, q)
    quartic = Quartic(fun.material, fun.temperature) if isinstance(fun, GLPenalized) else fun
    dens, dscale = quartic.a2 * tr2, abs(quartic.a2) * tr2
    dfdq, gscale = 2.0 * quartic.a2 * q, 2.0 * abs(quartic.a2) * np.sqrt(tr2)
    for m, p, co in quartic.terms:
        dens = dens + co * tr2**m * tr3**p
        dscale = dscale + abs(co * tr2**m * tr3**p)
        if m:
            dfdq = dfdq + (2.0 * m * co * tr2 ** (m - 1) * tr3**p)[..., None, None] * q
            gscale = gscale + abs(2.0 * m * co * tr2 ** (m - 1) * tr3**p) * np.sqrt(tr2)
        if p:
            dfdq = dfdq + (3.0 * p * co * tr2**m * tr3 ** (p - 1))[..., None, None] * q2
            gscale = gscale + abs(3.0 * p * co * tr2**m * tr3 ** (p - 1)) * tr2
    if isinstance(fun, GLPenalized):
        excess = np.maximum(tr2 - 1.0 / 6.0, 0.0)
        dens = dens + excess**2 / fun.eps**2
        dscale = dscale + excess**2 / fun.eps**2
        dfdq = dfdq + (4.0 / fun.eps**2 * excess)[..., None, None] * q
        gscale = gscale + 4.0 / fun.eps**2 * excess * np.sqrt(tr2)
    dfdq = dfdq - np.trace(dfdq, axis1=-2, axis2=-1)[..., None, None] * np.eye(3) / 3.0
    edge, lap, lscale = 0.0, np.zeros_like(q), np.zeros(grid.shape)
    norms = np.sqrt(tr2)
    for axis, h in enumerate((grid.hx, grid.hy, grid.hz)):
        diff = np.diff(q, axis=axis)
        edge += float(np.sum(diff * diff)) / h**2
        inner = [slice(1, -1)] * 3
        ahead, behind = list(inner), list(inner)
        ahead[axis], behind[axis] = slice(2, None), slice(None, -2)
        lap[tuple(inner)] += (q[tuple(ahead)] - 2.0 * q[tuple(inner)] + q[tuple(behind)]) / h**2
        lscale[tuple(inner)] += (norms[tuple(ahead)] + 2.0 * norms[tuple(inner)]
                                 + norms[tuple(behind)]) / h**2
    res = 2.0 * elastic_l * lap - dfdq
    res[_face_mask(grid.shape)] = 0.0
    energy = grid.node_volume * (float(np.sum(dens)) + elastic_l * edge)
    escale = grid.node_volume * (float(np.sum(dscale)) + elastic_l * edge)
    return energy, escale, res, 2.0 * elastic_l * lscale + gscale


def _bulk_variant(variant, m, t, eps):
    if variant == "quartic":
        return Quartic(m, t)
    if variant == "gl":
        return GLPenalized(m, t, eps)
    return Polynomial(a2=a_of_temperature(m, t) / 2.0,
                      terms=((0, 1, -m.b / 3.0), (2, 0, m.c / 4.0), (3, 0, 0.5), (0, 2, 0.01)))


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.integers(3, 6)] * 3),
    spacings=st.tuples(*[st.floats(0.3, 3.0)] * 3),
    variant=st.sampled_from(["quartic", "gl", "poly"]),
    t=st.floats(40.0, 50.0),
    eps=st.floats(0.05, 2.0),
    radius=st.floats(0.01, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_pass_matches_matrix_formulation(shape, spacings, variant, t, eps, radius, seed):
    # the component-major pass behind discrete_energy and el_residual against the
    # plain 3x3-matrix energy and Euler-Lagrange residual
    m = mbba(scale=1e-3)
    cfg = SolverConfig(functional=_bulk_variant(variant, m, t, eps), elastic_l=m.elastic_l)
    grid = Grid3(*shape, *spacings)
    field = QField(grid, radius * np.random.default_rng(seed).standard_normal(grid.shape + (5,)))
    energy, escale, res, rscale = matrix_energy_and_residual(field.values, grid, cfg.functional,
                                                             m.elastic_l)
    assert abs(discrete_energy(field, cfg) - energy) <= 1e-12 * escale
    err = np.linalg.norm(coeffs_to_matrices(el_residual(field, cfg)) - res, axis=(-2, -1))
    assert np.all(err <= 1e-12 * rscale)


def _captured_line_pass(variant, shape, spacings, director):
    """The line flow's bulk kernel in a director-line run on data s = 0.3, with its setup.

    The run makes two flows: the line flow on one component, then the five-component
    check on the full kernel. Both run at c = 2 cfg.elastic_l.
    """
    m = mbba(scale=1e-3)
    cfg = SolverConfig(functional=_bulk_variant(variant, m, 44.0, 0.1), elastic_l=m.elastic_l,
                       max_iters=0)
    grid = Grid3(*shape, *spacings)
    director = np.array(director) / np.linalg.norm(director)
    flows, flow = [], solver._flow

    def capture(values, grid, bulk, cfg, hessian_bound=None):
        flows.append((values.shape[-1], bulk, cfg))
        return flow(values, grid, bulk, cfg, hessian_bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_flow", capture)
        solver.minimize_on_subspace(uniform_boundary_field(grid, 0.3, director), (director,), cfg)
    (line_ncomp, bulk, line_cfg), (check_ncomp, check_bulk, check_cfg) = flows
    assert (line_ncomp, check_ncomp) == (1, 5)
    assert check_bulk == cfg.functional.density_and_gradient
    assert line_cfg.elastic_l == check_cfg.elastic_l == m.elastic_l
    return m, cfg, grid, director, bulk


_PASS_CASES = dict(
    shape=st.tuples(*[st.integers(3, 6)] * 3),
    spacings=st.tuples(*[st.floats(0.3, 3.0)] * 3),
    variant=st.sampled_from(["quartic", "gl", "poly"]),
    director=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
    radius=st.floats(0.01, 1.5),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(**_PASS_CASES)
def test_director_line_pass_matches_matrix_formulation(shape, spacings, variant, director,
                                                       radius, seed):
    # One pass of the line flow on t: its energy is the matrix energy of Q = t b with
    # the unit uniaxial b, its residual is the matrix residual's coefficient along b
    # (c = 2 L, as |b| = 1), and the five-component residual of t b is parallel to b.
    m, cfg, grid, director, bulk = _captured_line_pass(variant, shape, spacings, director)
    unit = uniaxial_coeffs(1.0, director) / np.sqrt(2.0 / 3.0)
    t = radius * np.random.default_rng(seed).standard_normal(grid.shape)
    lifted = t[..., None] * unit
    energy, escale, res, rscale = matrix_energy_and_residual(lifted, grid, cfg.functional,
                                                             m.elastic_l)
    got_energy, got_res = solver._energy_and_residual(t[None], grid, 2.0 * m.elastic_l, bulk)
    assert abs(got_energy - energy) <= 1e-12 * escale
    along = np.einsum("...ij,cij,c->...", res, BASIS, unit)
    assert np.all(np.abs(got_res[0] - along) <= 1e-12 * rscale)
    five = el_residual(QField(grid, lifted), cfg)
    across = five - (five @ unit)[..., None] * unit
    assert np.all(np.linalg.norm(across, axis=-1) <= 1e-12 * rscale)


def _line_data(kind, grid, director, s):
    """Boundary values of a ``uniaxial`` or ``per-face`` datum of scale ``s``."""
    if kind == "uniaxial":
        return cli.boundary_values(grid, {"kind": kind, "s0": s, "director": director})
    faces = dict(zip(("xlo", "xhi", "ylo", "yhi", "zlo", "zhi"), s * np.linspace(0.2, 1.0, 6)))
    return cli.boundary_values(grid, {"kind": kind, "director": director, **faces})


@pytest.mark.parametrize("kind", ["uniaxial", "per-face"])
@pytest.mark.parametrize("variant", ["quartic", "poly", "gl"])
def test_director_line_relaxation_takes_the_five_component_trials(variant, kind):
    # The line flow's trials are the five-component flow's from the same harmonic
    # start, and the five-component minimize from its end takes no step.
    m = mbba(scale=1e-3)
    t = 45.5 if variant == "gl" else 44.0
    cfg = SolverConfig(functional=_bulk_variant(variant, m, t, 0.3), elastic_l=m.elastic_l,
                       tol_residual=1e-7)
    grid = Grid3(9, 9, 9, 1.0, 1.0, 1.0)
    director = np.array([1.0, 2.0, 2.0]) / 3.0
    bvals = _line_data(kind, grid, director, 0.5 * min(stationary_columns(m, t).s_plus, 1.0))
    start = harmonic_interior(QField(grid, bvals))
    _, five = minimize(start, cfg)
    lifted, line = solver.minimize_on_subspace(start, (director,), cfg)
    assert (line.iterations, line.fallbacks, line.rejected_steps) == (
        five.iterations, five.fallbacks, five.rejected_steps)
    assert line.iterations > 0 and line.converged
    assert line.dt_initial == pytest.approx(five.dt_initial, rel=1e-12, abs=0.0)
    assert line.final_energy == pytest.approx(five.final_energy, rel=1e-12, abs=0.0)
    assert np.array_equal(lifted.values[lifted.boundary_mask], bvals[lifted.boundary_mask])
    _, check = minimize(lifted, cfg)
    assert check.iterations == check.fallbacks == check.rejected_steps == 0
    assert check.final_energy == pytest.approx(five.final_energy, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("max_iters", [3, 200])
@pytest.mark.parametrize("entry", ["line", "plane"])
def test_line_runs_end_in_one_five_component_minimize_on_the_iterations_left(monkeypatch,
                                                                             entry, max_iters):
    # The paper's bounds hold at critical points of the five-component energy, so a
    # line or plane run returns the field of one five-component minimize from the
    # subspace's end, whose budget is what the subspace left of cfg.max_iters.
    m, cfg = quartic_cfg(t=44.0, tol_residual=1e-7, max_iters=max_iters)
    if entry == "line":
        director = np.array([1.0, 2.0, 2.0]) / 3.0
        s0 = 0.5 * stationary_columns(m, 44.0).s_plus
        start = harmonic_interior(uniform_boundary_field(Grid3(7, 7, 7, 1.0, 1.0, 1.0), s0,
                                                         director))
        axes = (director,)
    else:
        start, axes = _biaxial_xy_start(), (X, Y)
    flows, flow = [], solver._flow
    checks, relax = [], solver.minimize

    def capture_flow(values, grid, bulk, cfg, hessian_bound=None):
        flows.append(flow(values, grid, bulk, cfg, hessian_bound))
        return flows[-1]

    def capture_minimize(start, cfg):
        checks.append((cfg, *relax(start, cfg)))
        return checks[-1][1:]

    monkeypatch.setattr(solver, "_flow", capture_flow)
    monkeypatch.setattr(solver, "minimize", capture_minimize)
    result, report = solver.minimize_on_subspace(start, axes, cfg)
    (check_cfg, field, check), = checks
    sub = flows[0][1]
    assert 0 < sub.iterations <= max_iters
    assert check_cfg.max_iters == max_iters - sub.iterations
    assert report.iterations == sub.iterations + check.iterations
    assert report.final_energy == check.final_energy
    assert result is field


def test_merged_report_counts_the_line_and_the_checks_trials():
    m, cfg = quartic_cfg(t=44.0, tol_residual=1e-7)
    grid = Grid3(7, 7, 7, 1.0, 1.0, 1.0)
    start = harmonic_interior(uniform_boundary_field(grid, 0.5))
    lifted, line = solver.minimize_on_subspace(start, (Z,), dataclasses.replace(cfg,
                                                                                max_iters=3))
    _, check = minimize(lifted, cfg)
    assert line.stop_reason == "max_iters" and check.iterations > 0
    merged = solver._merge_reports(line, check)
    assert merged.iterations == line.iterations + check.iterations
    assert merged.fallbacks == line.fallbacks + check.fallbacks
    assert merged.rejected_steps == line.rejected_steps + check.rejected_steps
    assert (merged.final_energy, merged.converged, merged.stop_reason) == (
        check.final_energy, True, "converged")
    assert merged.trace[:3] == line.trace[:3]
    assert merged.trace[3] == (3, check.trace[0][1], check.trace[0][2], line.trace[3][3])
    assert merged.trace[-1] == (merged.iterations, *check.trace[-1][1:])
    assert merged.dt_initial == max(line.dt_initial, check.dt_initial)
    assert merged.dt_final == min(line.dt_final, check.dt_final)
    # a check that takes no step changes only the last row's energy and residual
    lifted, done = solver.minimize_on_subspace(start, (Z,), cfg)
    _, idle = minimize(lifted, cfg)
    merged = solver._merge_reports(done, idle)
    assert idle.iterations == 0
    assert dataclasses.replace(merged, trace=done.trace, final_energy=done.final_energy,
                               final_residual_maxnorm=done.final_residual_maxnorm) == done
    assert merged.trace[-1] == (done.iterations, idle.final_energy,
                                idle.final_residual_maxnorm, done.trace[-1][3])


def test_director_line_divergence_raises_without_a_numpy_warning():
    # the start overflows the energy; the five-component dt probe must not run first
    m, cfg = quartic_cfg(t=44.0)
    grid = Grid3(5, 5, 5, 1.0, 1.0, 1.0)
    for s in (1e100, 1.7e308, -1.7e308):
        with pytest.raises(DivergenceError, match="initial field has non-finite energy"):
            solver.minimize_on_subspace(uniform_boundary_field(grid, s), (Z,), cfg)


_QUARTIC_44 = quartic_cfg(t=44.0, tol_residual=1e-7)[1]


def _biaxial_xy_start():
    """Biaxial data in the frame x, y on 9^3, with their harmonic interior."""
    grid = Grid3(9, 9, 9, 1.0, 1.0, 1.0)
    bvals = np.broadcast_to(make_biaxial(0.5, 0.2, X, Y).coeffs, grid.shape + (5,))
    return harmonic_interior(QField.from_boundary(grid, bvals))


@pytest.mark.parametrize("axes, error, message", [
    ((X, Y, Z), FrameError, "a frame is one director or a pair e1, e2, not 3 vectors"),
    ((), FrameError, "a frame is one director or a pair e1, e2, not 0 vectors"),
    (((1, 0, 0), (0, 2, 0)), FrameError, "e1 and e2 must be unit vectors"),
    ((X, X), FrameError, "e1 and e2 must be orthogonal"),
    (((0, 0, 2),), FrameError, "director must be a unit vector"),
    (((0, 1),), FrameError, "director must be a unit vector"),
    # an orthonormal frame, or one director, whose subspace does not hold the data
    (((1, 0, 0), (0, 0.6, 0.8)), ValueError, "the start's face values leave the subspace"),
    ((X,), ValueError, "the start's face values leave the subspace"),
], ids=["three", "none", "long-e2", "parallel", "long-director", "2-vector", "foreign-frame",
        "x-line"])
def test_the_subspace_flow_checks_its_axes_and_start_before_any_flow(monkeypatch, axes, error,
                                                                    message):
    def no_flow(*args, **kwargs):
        raise AssertionError("the flow ran")

    monkeypatch.setattr(solver, "_flow", no_flow)
    with pytest.raises(error, match=message):
        solver.minimize_on_subspace(_biaxial_xy_start(), axes, _QUARTIC_44)


def test_the_subspace_flow_takes_every_frame_of_the_datas_plane():
    start = _biaxial_xy_start()
    for frame in ((X, Y), (Y, X), ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0))):
        _, report = solver.minimize_on_subspace(start, frame, _QUARTIC_44)
        assert report.converged


def test_line_flows_evaluate_the_five_component_kernel_only_in_the_dt_probe(monkeypatch):
    # The line flow runs the bulk kernel on its one component,
    # with the scalar square t^2/sqrt(6); only its dt probe evaluates the
    # five-component kernel, on 64 sampled nodes moved along each of 5 directions.
    # The five-component check of the line's end makes one full-grid pass and,
    # having no step to take, no other (a lift per trial would add one per trial).
    shapes = []

    def counted(q, axis=-1):
        shapes.append(np.shape(q))
        return square_coeffs(q, axis)

    monkeypatch.setattr("ldgq.bulk.square_coeffs", counted)
    m, cfg = quartic_cfg(t=44.0, tol_residual=1e-7)
    grid = Grid3(9, 9, 9, 1.0, 1.0, 1.0)
    s0 = 0.5 * stationary_columns(m, 44.0).s_plus
    director = np.array([1.0, 2.0, 2.0]) / 3.0
    _, report = solver.minimize_on_subspace(
        harmonic_interior(uniform_boundary_field(grid, s0, director)), (director,), cfg)
    assert report.iterations > 0
    probes = [shape for shape in shapes if shape != (5, *grid.shape)]
    assert len(shapes) - len(probes) == 1, shapes
    assert probes and all(len(shape) == 3 and shape[:2] == (5, 5) and shape[2] <= 64
                          for shape in probes), shapes


def test_flow_raises_when_every_halved_trial_is_non_finite():
    # a kernel finite only at the zero start: the plain step and its 60 halvings
    # all leave it, so the flow stops with DivergenceError, not step_collapse
    def bulk(q):
        density = np.zeros(q.shape[1:]) if not q.any() else np.full(q.shape[1:], np.nan)
        return density, np.ones(q.shape)

    m, cfg = quartic_cfg()
    with pytest.raises(DivergenceError, match="gradient flow produced a non-finite energy"):
        solver._flow(np.zeros((4, 4, 4, 1)), Grid3(4, 4, 4, 1.0, 1.0, 1.0), bulk, cfg,
                     hessian_bound=lambda q: 1.0)


def test_minimize_already_stationary_takes_zero_iterations():
    m, cfg = quartic_cfg(t=44.5)
    sp = stationary_columns(m, 44.5).s_plus
    grid = Grid3(7, 7, 7, 1.0, 1.0, 1.0)
    init = QField.constant(grid, uniaxial_coeffs(sp, Z))
    final, report = minimize(init, cfg)
    assert report.converged
    assert report.iterations == 0
    assert np.array_equal(final.values, init.values)


def test_minimize_reaches_constant_minimizer_from_zero_interior():
    m, cfg = quartic_cfg(t=44.5)
    sp = stationary_columns(m, 44.5).s_plus
    grid = Grid3(7, 7, 7, 1.0, 1.0, 1.0)
    init = uniform_boundary_field(grid, sp)
    final, report = minimize(init, cfg)
    assert report.converged
    assert report.energy_history_monotone
    fB = cfg.functional.density(uniaxial_coeffs(sp, Z))
    volume = grid.nx * grid.ny * grid.nz * grid.node_volume
    assert report.final_energy == pytest.approx(volume * fB, rel=1e-6)
    assert np.abs(final.values - uniaxial_coeffs(sp, Z)).max() < 1e-4


def test_minimize_high_temperature_interior_below_boundary():
    m = mbba(scale=1e-3)
    cfg = SolverConfig(functional=Quartic(m, 50.0), elastic_l=m.elastic_l,
                       tol_residual=1e-9)
    grid = Grid3(9, 9, 9, 1.0, 1.0, 1.0)
    s0 = 0.3 / np.sqrt(2 / 3)
    init = harmonic_interior(uniform_boundary_field(grid, s0))
    final, report = minimize(init, cfg)
    assert report.converged
    norms = final.norms()
    assert norms[~final.boundary_mask].max() <= norms[final.boundary_mask].max() + 1e-8


def test_minimize_preserves_boundary_bits():
    m, cfg = quartic_cfg(t=44.0)
    grid = Grid3(6, 6, 6, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(8)
    bvals = 0.3 * rng.standard_normal(grid.shape + (5,))
    init = QField.from_boundary(grid, bvals)
    before = init.values[init.boundary_mask].copy()
    final, _ = minimize(init, dataclasses.replace(cfg, max_iters=200))
    assert np.array_equal(final.values[final.boundary_mask], before)


def test_minimize_deterministic_reports():
    m, cfg = quartic_cfg(t=44.5, tol_residual=1e-6)
    grid = Grid3(6, 6, 6, 1.0, 1.0, 1.0)
    sp = stationary_columns(m, 44.5).s_plus
    init = uniform_boundary_field(grid, 0.8 * sp)
    final1, rep1 = minimize(init, cfg)
    final2, rep2 = minimize(init, cfg)
    assert rep1 == rep2
    assert np.array_equal(final1.values, final2.values)
    # fewer iterates than trace rows: the trace keeps them all
    assert [row[0] for row in rep1.trace] == list(range(rep1.iterations + 1))
    assert rep1.trace[-1][1:3] == (rep1.final_energy, rep1.final_residual_maxnorm)


def test_minimize_frame_equivariance():
    m, cfg = quartic_cfg(t=44.5, tol_residual=1e-9)
    grid = Grid3(7, 7, 7, 1.0, 1.0, 1.0)
    sp = stationary_columns(m, 44.5).s_plus
    init = uniform_boundary_field(grid, 0.9 * sp, director=Z)

    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    angle = 0.7
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    rot = np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
    init_rot = init.with_values(rotate_coeffs(init.values, rot))

    final, rep = minimize(init, cfg)
    final_rot, rep_rot = minimize(init_rot, cfg)
    assert rep_rot.final_energy == pytest.approx(rep.final_energy, rel=1e-10)
    back = rotate_coeffs(final_rot.values, rot.T)
    assert np.abs(back - final.values).max() < 50 * cfg.tol_residual


def test_minimize_raises_on_nonfinite_initial_energy():
    m = mbba(scale=1e-3)
    cfg = SolverConfig(functional=Quartic(m, 44.5), elastic_l=m.elastic_l)
    grid = Grid3(4, 4, 4, 1.0, 1.0, 1.0)
    huge = QField.constant(grid, uniaxial_coeffs(1e120, Z))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            minimize(huge, cfg)


def test_minimize_nonconverged_reports_false():
    m, cfg = quartic_cfg(t=44.5, max_iters=3, tol_residual=1e-14)
    grid = Grid3(6, 6, 6, 1.0, 1.0, 1.0)
    sp = stationary_columns(m, 44.5).s_plus
    init = uniform_boundary_field(grid, sp)
    _, report = minimize(init, cfg)
    assert not report.converged
    assert report.iterations == 3
    assert report.stop_reason == "max_iters"


def test_minimize_fine_grid_within_small_budget():
    # At h = 0.25 an explicit flow's step is capped near h^2 / (12 L), which
    # takes 233 iterations here; with the elastic term implicit only the bulk
    # limits dt, so the budget of 60 is enough.
    m = mbba(scale=1e-3)
    fun = Polynomial(a2=a_of_temperature(m, 44.0) / 2.0,
                     terms=((0, 1, -m.b / 3.0), (2, 0, m.c / 4.0), (3, 0, 0.5)))
    cfg = SolverConfig(functional=fun, elastic_l=m.elastic_l, tol_residual=1e-7, max_iters=60)
    grid = Grid3(9, 9, 9, 0.25, 0.25, 0.25)
    _, report = minimize(harmonic_interior(uniform_boundary_field(grid, 0.45)), cfg)
    assert report.converged
    assert report.iterations <= 60
    assert report.energy_history_monotone


def _flow_functional(variant, m, t):
    if variant == "quartic":
        return Quartic(m, t)
    if variant == "gl":  # stiff enough that some quasi-Newton trials fail
        return GLPenalized(m, t, 0.05)
    return Polynomial(a2=a_of_temperature(m, t) / 2.0,
                      terms=((0, 1, -m.b / 3.0), (2, 0, m.c / 4.0), (3, 0, 0.5)))


@settings(max_examples=30, deadline=None)
@given(
    shape=st.tuples(*[st.integers(3, 7)] * 3),
    spacings=st.tuples(*[st.floats(0.5, 1.5)] * 3),
    variant=st.sampled_from(["quartic", "gl", "poly"]),
    s_frac=st.floats(0.05, 1.0),
    director=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
)
# the interior turns nematic into the penalty: 62 quasi-Newton trials fail
@example(shape=(7, 7, 7), spacings=(1.0, 1.0, 1.0), variant="gl", s_frac=0.2,
         director=(0.0, 0.0, 1.0))
def test_lbfgs_steps_descend_to_the_memory_zero_minimizer(shape, spacings, variant, s_frac,
                                                          director):
    # Every trial is one energy-and-residual pass, and the flow takes the max
    # norm of the residual once per accepted iterate, right after the pass that
    # produced it; recording the latest pass's field at each max norm recovers
    # the accepted iterates in order. With no pairs kept the flow is the plain
    # semi-implicit gradient flow.
    m = mbba(scale=1e-3)
    t = 44.0
    cfg = SolverConfig(functional=_flow_functional(variant, m, t), elastic_l=m.elastic_l,
                       tol_residual=1e-8)
    grid = Grid3(*shape, *spacings)
    s0 = s_frac * min(stationary_columns(m, t).s_plus, 1.0)
    init = harmonic_interior(
        uniform_boundary_field(grid, s0, np.array(director) / np.linalg.norm(director)))
    iterates, latest = [], []
    energy_and_residual, max_node_norm = solver._energy_and_residual, solver._max_node_norm

    def recording_pass(q, *args):
        out = energy_and_residual(q, *args)
        latest[:] = [np.moveaxis(q, 0, -1).copy(), out[1]]
        return out

    def recording_max_norm(res):
        assert res is latest[1]
        iterates.append(latest[0])
        return max_node_norm(res)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_energy_and_residual", recording_pass)
        mp.setattr(solver, "_max_node_norm", recording_max_norm)
        _, report = minimize(init, cfg)
        mp.setattr(solver, "_MEMORY", 0)
        _, plain = minimize(init, cfg)
    assert report.converged and plain.converged
    energies = [discrete_energy(init.with_values(v), cfg) for v in iterates[:report.iterations + 1]]
    assert energies[-1] == report.final_energy
    for before, after in zip(energies, energies[1:]):
        assert after <= before + solver._ROUNDOFF_ULPS * np.finfo(float).eps * max(1.0, abs(before))
    assert report.final_energy == pytest.approx(plain.final_energy, rel=1e-9, abs=0.0)
    assert plain.fallbacks == 0


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(*[st.integers(3, 6)] * 3),
    spacings=st.tuples(*[st.floats(0.5, 1.5)] * 3),
    variant=st.sampled_from(["quartic", "gl", "poly"]),
    seed=st.integers(0, 2**32 - 1),
    step=st.floats(1e-3, 0.3),
)
def test_bulk_shift_is_the_bulk_rayleigh_quotient(shape, spacings, variant, seed, step):
    # s.y - c edge(s) leaves exactly the bulk part of the secant s.y: the
    # residual's elastic part is linear in Q, and s is zero on the faces
    m = mbba(scale=1e-3)
    fun = _flow_functional(variant, m, 44.0)
    grid = Grid3(*shape, *spacings)
    c = 2.0 * m.elastic_l
    rng = np.random.default_rng(seed)
    q = 0.4 * rng.standard_normal((5,) + grid.shape)  # component-major, as in the flow
    s = np.zeros_like(q)
    s[solver._INTERIOR] = step * rng.standard_normal(s[solver._INTERIOR].shape)
    r0, r1 = (solver._energy_and_residual(v, grid, c, fun.density_and_gradient)[1]
              for v in (q, q + s))
    ss = float(np.vdot(s, s))
    bulk = float(np.vdot(s, fun.density_and_gradient(q + s)[1]
                         - fun.density_and_gradient(q)[1])) / ss
    shift = solver._bulk_shift(s, float(np.vdot(s, r0 - r1)), grid, c)
    # roundoff of the terms that cancel in s.y
    cancel = float(np.vdot(abs(s), abs(r0) + abs(r1))) + c * solver._edge_dirichlet_sum(s, grid)
    assert shift == pytest.approx(bulk, rel=0.0, abs=8 * np.finfo(float).eps * cancel / ss)


def test_low_temperature_relaxation_iteration_counts():
    # The benchmark's 33^3 low-temperature relaxation (quartic, T = 44 < T*,
    # h = 1, s0 = 0.9 min(s_plus, 1), the director its seed 5 draws) shrunk to
    # 17^3, where the bulk term dominates the Hessian. All three solves reach
    # the same minimum.
    m = mbba(scale=1e-3)
    cfg = SolverConfig(functional=Quartic(m, 44.0), elastic_l=m.elastic_l, tol_residual=1e-7)
    director = np.random.default_rng([5, 33]).standard_normal(3)
    director /= np.linalg.norm(director)
    s0 = 0.9 * min(stationary_columns(m, 44.0).s_plus, 1.0)
    grid = Grid3(17, 17, 17, 1.0, 1.0, 1.0)
    init = harmonic_interior(uniform_boundary_field(grid, s0, director))
    # cold start from the harmonic fill
    _, cold = minimize(init, cfg)
    # the start of a restart: the fill perturbed by a tenth of Gamma, seed 11
    interior = ~init.boundary_mask
    values = init.values.copy()
    rng = np.random.default_rng(11)
    values[interior] += 0.1 * elastic_bound_gamma(m, 44.0) * rng.standard_normal(
        values[interior].shape)
    _, perturbed = minimize(init.with_values(values), cfg)
    # the line of the boundary's own director, from the same harmonic fill
    _, line = solver.minimize_on_subspace(init, (director,), cfg)
    for report, most in ((cold, 8), (perturbed, 43), (line, 8)):
        assert report.converged and report.iterations <= most
        assert report.final_energy == pytest.approx(-1076.4185552189185, rel=1e-12, abs=0.0)


def test_stiff_penalty_forces_fallbacks_and_still_converges():
    # At eps = 0.05 the penalty's curvature outgrows the first dt, so some
    # quasi-Newton trials raise the energy; each drops the memory and the
    # plain step halves dt until the energy falls.
    m = mbba(scale=1e-3)
    cfg = SolverConfig(functional=GLPenalized(m, 43.0, 0.05), elastic_l=m.elastic_l,
                       tol_residual=1e-7)
    grid = Grid3(7, 7, 7, 1.0, 1.0, 1.0)
    init = harmonic_interior(uniform_boundary_field(grid, 0.35 / np.sqrt(2.0 / 3.0)))
    _, report = minimize(init, cfg)
    assert report.fallbacks > 0
    assert report.converged and report.stop_reason == "converged"
    assert report.energy_history_monotone


def test_minimize_reports_step_collapse(monkeypatch):
    # an allowance no trial can meet: the first step and all 60 halvings are rejected
    m, cfg = quartic_cfg(t=44.5)
    init = harmonic_interior(uniform_boundary_field(Grid3(6, 6, 6, 1.0, 1.0, 1.0), 0.5))
    monkeypatch.setattr(solver, "_ROUNDOFF_ULPS", -1e300)
    _, report = minimize(init, cfg)
    assert (report.stop_reason, report.converged, report.iterations) == ("step_collapse", False, 0)
    assert (report.fallbacks, report.rejected_steps) == (0, 61)  # every rejection halved dt
    assert report.dt_final == report.dt_initial / 2.0**61


def test_every_trial_is_an_lbfgs_step_in_fallback_order():
    # GL eps = 0.05 on 7^3: the interior turns nematic into the penalty. Each
    # iteration tries the quasi-Newton step if it holds pairs, then the plain
    # step at the same dt, then the plain step at halved dt until one is
    # accepted; the accepted iterate's residual closes the iteration.
    m = mbba(scale=1e-3)
    cfg = SolverConfig(functional=GLPenalized(m, 44.0, 0.05), elastic_l=m.elastic_l,
                       tol_residual=1e-7)
    s0 = 0.2 * min(stationary_columns(m, 44.0).s_plus, 1.0)
    grid = Grid3(7, 7, 7, 1.0, 1.0, 1.0)
    init = harmonic_interior(uniform_boundary_field(grid, s0))
    log = []
    lbfgs_step, max_node_norm = solver._lbfgs_step, solver._max_node_norm

    def recording_step(res, pairs, solve, sigma):
        # the newest pair's bulk shift, from which a quasi-Newton trial takes its own
        if pairs:
            s, _, rho = pairs[-1]
            bulk = solver._bulk_shift(s, 1.0 / rho, grid, 2.0 * m.elastic_l)
        else:
            bulk = None
        log.append((sigma, len(pairs), bulk))
        return lbfgs_step(res, pairs, solve, sigma)

    def recording_max_norm(res):  # once per accepted iterate
        log.append("accepted")
        return max_node_norm(res)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_lbfgs_step", recording_step)
        mp.setattr(solver, "_max_node_norm", recording_max_norm)
        _, report = minimize(init, cfg)
    assert (report.iterations, report.fallbacks, report.dt_final) == (164, 21, 0.004718959956553216)
    assert report.final_energy == pytest.approx(-4.3127659109600565, rel=1e-12, abs=0.0)
    assert report.rejected_steps == 7 and report.converged

    iterations, trials = [], []
    for entry in log[1:]:  # log[0] marks the initial field
        if entry == "accepted":
            iterations.append(trials)
            trials = []
        else:
            trials.append(entry)
    assert len(iterations) == report.iterations and not trials
    fallbacks = halvings = above_floor = 0
    floor = 0.1  # the shift's floor factor: 0.1 at the start, doubled up to 1 at each fallback
    inv_dt = iterations[0][0][0]
    assert inv_dt == 1.0 / report.dt_initial  # the first trial is plain, at dt_initial
    for trials in iterations:
        quasi_newton = trials[0][1] > 0
        if quasi_newton:  # max(sigma_k, floor/dt); dt carries over from the last plain trial
            sigma, _, bulk = trials[0]
            assert sigma == pytest.approx(max(bulk, floor * inv_dt), rel=1e-12, abs=0.0)
            above_floor += bulk > floor * inv_dt
        plain = trials[1:] if quasi_newton else trials
        if quasi_newton and plain:  # the quasi-Newton trial failed
            fallbacks += 1
            floor = min(1.0, 2.0 * floor)
        assert all(npairs == 0 for _, npairs, _ in plain)
        assert [s for s, _, _ in plain] == [2.0 ** k * inv_dt for k in range(len(plain))]
        halvings += max(len(plain) - 1, 0)
        inv_dt = plain[-1][0] if plain else inv_dt
    assert (fallbacks, halvings) == (report.fallbacks, report.rejected_steps)
    # at least one iteration runs the whole order: quasi-Newton, plain, halved
    assert any(t[0][1] and len(t) > 2 for t in iterations)
    # the trace thins the 165 iterates to 32 rows, each with its accepted trial's shift
    trace = report.trace
    assert len(trace) == solver._TRACE_ROWS
    assert trace[0][0] == 0 and trace[0][3] is None
    assert trace[-1] == (report.iterations, report.final_energy, report.final_residual_maxnorm,
                         iterations[-1][-1][0])
    gaps = {b[0] - a[0] for a, b in zip(trace, trace[1:])}
    assert gaps == {5, 6}  # 164 iterations in 31 even gaps
    for k, _, _, shift in trace[1:]:
        assert shift == iterations[k - 1][-1][0]
    # the secant shift and its floor both set some quasi-Newton trial
    assert 0 < above_floor < sum(t[0][1] > 0 for t in iterations)


def _line_run(s_boundary, director, cfg, grid):
    """Start, field and report of the line run on data s_boundary (n x n - I/3), harmonic start."""
    start = harmonic_interior(QField(grid, uniaxial_coeffs(
        np.broadcast_to(s_boundary, grid.shape), director)))
    return start, *solver.minimize_on_subspace(start, (director,), cfg)


def test_uniaxial_fixed_director_constant_boundary():
    m, cfg = quartic_cfg(t=45.0, tol_residual=1e-9)
    sp = stationary_columns(m, 45.0).s_plus
    grid = Grid3(9, 9, 9, 1.0, 1.0, 1.0)

    _, field, report = _line_run(sp, Z, cfg, grid)
    assert report.converged and report.iterations == 0
    assert np.allclose(scalar_order(field, Z), sp, rtol=1e-14, atol=0.0)

    s0 = 0.5 * min(sp, 1.0)
    _, field, report = _line_run(s0, Z, cfg, grid)
    assert report.converged
    s = scalar_order(field, Z)
    slack = 1e-6
    assert s.min() >= s0 - slack
    assert s.max() <= sp + slack


def test_uniaxial_fixed_director_face_ramp():
    m, cfg = quartic_cfg(t=45.0, tol_residual=1e-8)
    sp = stationary_columns(m, 45.0).s_plus
    grid = Grid3(9, 9, 9, 1.0, 1.0, 1.0)
    cap = min(sp, 1.0)
    xs = np.linspace(0.2, 0.6 * cap, grid.nx)
    assert 0.0 < xs.min() and xs.max() < cap  # the paper's hypothesis on the data
    _, field, report = _line_run(xs[:, None, None], Z, cfg, grid)
    assert report.converged
    s = scalar_order(field, Z)
    assert s.min() >= -1e-6
    assert s.max() <= sp * (1 + 1e-3)


@pytest.mark.parametrize("variant", ["quartic", "gl", "poly"])
def test_fixed_director_flow_is_the_full_flow_restricted(variant):
    # The line flow minimizes the full energy on the line Q = s (n x n - I/3): its end
    # keeps the Dirichlet bits, lies on the line, and the field lifted from its s has the
    # reported full discrete energy and full residual max node norm.
    m = mbba(scale=1e-3)
    fun = {
        "quartic": Quartic(m, 44.5),
        "gl": GLPenalized(m, 44.5, 0.1),
        "poly": Polynomial(a2=a_of_temperature(m, 44.0) / 2.0,
                           terms=((0, 1, -m.b / 3.0), (2, 0, m.c / 4.0), (3, 0, 0.5))),
    }[variant]
    cfg = SolverConfig(functional=fun, elastic_l=m.elastic_l, tol_residual=1e-9)
    grid = Grid3(7, 6, 8, 0.9, 1.0, 1.2)
    director = np.array([1.0, 2.0, 2.0]) / 3.0
    ramp = np.linspace(0.2, 0.5, grid.nx)
    start, field, report = _line_run(ramp[:, None, None], director, cfg, grid)
    assert report.converged
    mask = field.boundary_mask
    assert np.array_equal(field.values[mask], start.values[mask])
    lifted = QField(grid, uniaxial_coeffs(scalar_order(field, director), director))
    assert np.abs(lifted.values - field.values).max() <= 1e-15
    assert report.final_energy == pytest.approx(discrete_energy(lifted, cfg), rel=1e-12)
    full = np.linalg.norm(el_residual(lifted, cfg), axis=-1).max()
    assert full == pytest.approx(report.final_residual_maxnorm, rel=1e-9)


def test_harmonic_interior_linear_data_reproduced():
    # a coefficientwise affine function is discrete harmonic, so the fill
    # must reproduce it from its boundary values
    grid = Grid3(7, 6, 5, 1.0, 0.5, 1.5)
    xs = np.arange(grid.nx)[:, None, None, None]
    ys = np.arange(grid.ny)[None, :, None, None]
    target = 0.1 * xs + 0.05 * ys + np.linspace(0, 0.2, 5)
    target = np.broadcast_to(target, grid.shape + (5,)).copy()
    field = QField.from_boundary(grid, target)
    filled = harmonic_interior(field)
    assert np.abs(filled.values - target).max() < 1e-12


def dense_harmonic_interior(field):
    """Reference fill: assemble the 7-point Laplace system node by node and solve it densely."""
    grid = field.grid
    spacings = (grid.hx, grid.hy, grid.hz)
    nodes = [(i, j, k) for i in range(1, grid.nx - 1) for j in range(1, grid.ny - 1)
             for k in range(1, grid.nz - 1)]
    index = {node: row for row, node in enumerate(nodes)}
    mat = np.zeros((len(nodes), len(nodes)))
    rhs = np.zeros((len(nodes), 5))
    for row, node in enumerate(nodes):
        for axis, h in enumerate(spacings):
            for step in (-1, 1):
                nbr = list(node)
                nbr[axis] += step
                nbr = tuple(nbr)
                mat[row, row] -= 1.0 / h**2
                if nbr in index:
                    mat[row, index[nbr]] += 1.0 / h**2
                else:
                    rhs[row] -= field.values[nbr] / h**2
    values = field.values.copy()
    values[tuple(np.array(nodes).T)] = np.linalg.solve(mat, rhs)
    return values


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(*[st.integers(3, 7)] * 3),
    spacings=st.tuples(*[st.floats(0.25, 4.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_harmonic_interior_matches_dense_solve(shape, spacings, seed):
    grid = Grid3(*shape, *spacings)
    bvals = np.random.default_rng(seed).standard_normal(grid.shape + (5,))
    field = QField.from_boundary(grid, bvals)
    filled = harmonic_interior(field)
    expected = dense_harmonic_interior(field)
    assert np.abs(filled.values - expected).max() <= 1e-12 * np.abs(field.values).max()
    mask = field.boundary_mask
    assert filled.values[mask].tobytes() == field.values[mask].tobytes()


def dense_shifted_operator(grid, sigma, c):
    """Reference (sigma I - c lap_h) on the interior nodes, zero Dirichlet data, node by node."""
    spacings = (grid.hx, grid.hy, grid.hz)
    nodes = [(i, j, k) for i in range(1, grid.nx - 1) for j in range(1, grid.ny - 1)
             for k in range(1, grid.nz - 1)]
    index = {node: row for row, node in enumerate(nodes)}
    mat = sigma * np.eye(len(nodes))
    for row, node in enumerate(nodes):
        for axis, h in enumerate(spacings):
            for step in (-1, 1):
                nbr = list(node)
                nbr[axis] += step
                mat[row, row] += c / h**2
                if tuple(nbr) in index:
                    mat[row, index[tuple(nbr)]] -= c / h**2
    return nodes, mat


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(*[st.integers(3, 7)] * 3),
    spacings=st.tuples(*[st.floats(0.25, 4.0)] * 3),
    sigma=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    c=st.floats(1e-2, 1e2),
    ncomp=st.sampled_from([1, 5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_shifted_solver_matches_dense_solve(shape, spacings, sigma, c, ncomp, seed):
    grid = Grid3(*shape, *spacings)
    b = np.random.default_rng(seed).standard_normal((ncomp,) + grid.shape)  # component-major
    x = _shifted_solver(grid, c)(b, sigma)
    nodes, mat = dense_shifted_operator(grid, sigma, c)
    interior = (slice(None),) + tuple(np.array(nodes).T)
    expected = np.linalg.solve(mat, b[interior].T).T
    assert np.abs(x[interior] - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.all(x[:, _face_mask(grid.shape)] == 0.0)


def test_read_field_diagnostics_name_file_lines(tmp_path):
    # blank lines after the header are skipped but still counted
    path = tmp_path / "field.ldgq"
    write_field(path, QField(Grid3(3, 3, 3, 1.0, 1.0, 1.0), np.zeros((3, 3, 3, 5))))
    lines = path.read_text().splitlines()
    lines[1:1] = ["", "   "]
    lines[5] = lines[5].replace("0.0", "nan", 1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError, match=r": line 6: non-finite value"):
        read_field(path)
    lines[5] = "0 9 2" + lines[5][5:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError, match=r": line 6: node index \(0 9 2\)"):
        read_field(path)


def test_read_field_skips_a_byte_order_mark(tmp_path):
    path, marked = tmp_path / "field.ldgq", tmp_path / "marked.ldgq"
    grid = Grid3(3, 4, 3, 0.5, 1.0, 0.25)
    field = QField(grid, np.random.default_rng(4).standard_normal(grid.shape + (5,)))
    write_field(path, field)
    marked.write_bytes("\ufeff".encode() + path.read_bytes())
    back = read_field(marked)
    assert back.grid == grid
    assert np.array_equal(back.values, field.values)
    # the per-line reader rereads the file from its start, and still skips the mark
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(lines[2].split()[3], "nan", 1)
    marked.write_bytes("\ufeff".encode() + ("\n".join(lines) + "\n").encode())
    with pytest.raises(FieldFormatError, match=r": line 3: non-finite value"):
        read_field(marked)


def test_field_file_bytes_match_a_per_node_writer(tmp_path):
    # the reader shares the writer's node table, so a round trip cannot catch a
    # transposed order; this reference spells the LDGQ1 layout out node by node
    grid = Grid3(3, 4, 5, 0.25, 1.0, 0.5)
    values = np.random.default_rng(3).standard_normal(grid.shape + (5,))
    values[1, 2, 3] = [0.0, -0.0, 5e-324, 1.0 / 3.0, -1.7976931348623157e308]
    path = tmp_path / "field.ldgq"
    write_field(path, QField(grid, values))
    lines = ["LDGQ1 3 4 5 0.25 1.0 0.5"]
    for i in range(3):
        for j in range(4):
            for k in range(5):
                lines.append(f"{i} {j} {k} " + " ".join(repr(float(v)) for v in values[i, j, k]))
    assert path.read_text() == "\n".join(lines) + "\n"


def test_write_field_holds_less_than_its_file(tmp_path):
    # the text is made one i-plane at a time; a writer that holds the whole body
    # as lines peaks at 13.5 MB for this 3.8 MB file
    grid = Grid3(33, 33, 33, 1.0, 1.0, 1.0)
    field = QField(grid, np.random.default_rng(0).standard_normal(grid.shape + (5,)))
    path = tmp_path / "field.ldgq"
    tracemalloc.start()
    try:
        write_field(path, field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_field_file_roundtrip_and_rejections(tmp_path):
    grid = Grid3(4, 3, 5, 0.25, 1.0, 0.5)
    rng = np.random.default_rng(9)
    field = QField(grid, rng.standard_normal(grid.shape + (5,)))
    path = tmp_path / "field.ldgq"
    write_field(path, field)
    back = read_field(path)
    assert back.grid == grid
    assert np.array_equal(back.values, field.values)

    bad = tmp_path / "bad.ldgq"
    text = path.read_text()

    bad.write_text(text.replace("LDGQ1", "LDGQ2", 1))
    with pytest.raises(FieldFormatError):
        read_field(bad)

    bad.write_text("")
    with pytest.raises(FieldFormatError, match=": empty file$"):
        read_field(bad)

    bad.write_text(text.replace("LDGQ1 4 3 5", "LDGQ1 4 x 5", 1))
    with pytest.raises(FieldFormatError, match=": line 1: malformed header"):
        read_field(bad)

    bad.write_text("\n".join(text.splitlines()[:-3]) + "\n")
    with pytest.raises(FieldFormatError):
        read_field(bad)

    lines = text.splitlines()
    toks = lines[5].split()
    toks[3] = "nan"
    lines[5] = " ".join(toks)
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFormatError):
        read_field(bad)

    # empty interior (nx = 2) violates the grid contract
    small = ["LDGQ1 2 3 3 1.0 1.0 1.0"]
    for i in range(2):
        for j in range(3):
            for k in range(3):
                small.append(f"{i} {j} {k} 0.0 0.0 0.0 0.0 0.0")
    bad.write_text("\n".join(small) + "\n")
    with pytest.raises(FieldFormatError):
        read_field(bad)


def _line_reader(path):
    """Values of the per-line LDGQ1 reader alone, or its error message."""
    with open(path) as fh:
        grid = _read_header(path, fh)
        try:
            return _read_node_lines(path, fh, grid)
        except FieldFormatError as exc:
            return str(exc)


_MUTATIONS = (
    "blank", "spaces", "index 1.0", "index +1", "index 1_0", "index 007", "value nan",
    "value -inf", "value 1_0", "7 tokens", "9 tokens", "swap", "comment", "delete",
)


def _mutate(lines, kind, at, other):
    """Apply one mutation to the body lines (header excluded) in place."""
    at %= len(lines)
    toks = lines[at].split()
    if kind == "blank":
        lines.insert(at, "")
    elif kind == "spaces":
        lines.insert(at, " \t ")
    elif kind == "swap":
        other %= len(lines)
        lines[at], lines[other] = lines[other], lines[at]
    elif kind == "comment":
        lines[at] += " # x"
    elif kind == "delete":
        del lines[at]
    elif toks:
        if kind.startswith("index "):
            toks[other % 3 % len(toks)] = kind[6:]
        elif kind.startswith("value "):
            toks[(3 + other % 5) % len(toks)] = kind[6:]
        elif kind == "7 tokens":
            del toks[-1]
        else:
            toks.append("0.5")
        lines[at] = " ".join(toks)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 40), st.integers(0, 40)),
                max_size=3))
def test_read_field_agrees_with_line_reader(tmp_path_factory, mutations):
    # every mutated file is read to the line reader's values bit for bit, or
    # rejected with the line reader's message
    path = tmp_path_factory.mktemp("mutated") / "field.ldgq"
    rng = np.random.default_rng(4)
    write_field(path, QField(Grid3(3, 4, 3, 1.0, 0.5, 2.0), rng.standard_normal((3, 4, 3, 5))))
    header, *body = path.read_text().splitlines()
    for kind, at, other in mutations:
        _mutate(body, kind, at, other)
    path.write_text("\n".join([header] + body) + "\n")
    expected = _line_reader(path)
    try:
        got = read_field(path).values
    except FieldFormatError as exc:
        assert str(exc) == expected
    else:
        assert not isinstance(expected, str), expected
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


_EXTREMES = np.resize(
    [5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308, 0.0, -0.0,
     1.79e308, -1.79e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0],
    (3, 3, 3, 5),
)


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (3, 3, 3, 5), elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(_EXTREMES)
def test_field_file_roundtrip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("roundtrip") / "field.ldgq"
    write_field(path, QField(Grid3(3, 3, 3, 1.0, 1.0, 1.0), values))
    back = read_field(path).values
    assert np.array_equal(back.view(np.int64), values.view(np.int64))


def test_read_field_parses_valid_files_in_one_pass(tmp_path, monkeypatch):
    # blank lines, signed and zero-padded indices and CRLF stay on the array parse
    def line_reader(path, fh, grid):
        raise AssertionError("per-line reader called on a valid file")

    monkeypatch.setattr(solver, "_read_node_lines", line_reader)
    path = tmp_path / "field.ldgq"
    values = np.random.default_rng(2).standard_normal((3, 3, 3, 5))
    write_field(path, QField(Grid3(3, 3, 3, 1.0, 1.0, 1.0), values))
    lines = path.read_text().splitlines()
    lines[1:1] = ["", " \t "]
    lines[4] = "+0 00 +1" + lines[4][5:]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert np.array_equal(read_field(path).values, values)
