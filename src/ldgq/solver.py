"""Finite-difference discretization and energy-monotone gradient flow.

The energy on a box grid with Dirichlet faces is a rectangle-rule sum of the
bulk density over nodes plus the elastic Dirichlet form summed over lattice
edges, every term weighted with the full cell volume. With that quadrature
the Euler-Lagrange residual (twice the elastic constant times the 7-point
Laplacian minus the bulk gradient) is the exact negative energy gradient per
unit node volume at every interior node. One descent loop, with c = 2 L, serves
the two flows: ``minimize`` relaxes the five coefficients, and
``minimize_on_director_line`` relaxes the coordinate t of Q = t b, b the unit
uniaxial tensor along a director n, on the full energy restricted to that line, and
certifies its end with ``minimize``. ``minimize_uniaxial_fixed_director`` is that run
in the units of the scalar s of Q = s (n x n - I/3) = s sqrt(2/3) b. The line flow runs
the one bulk kernel on its one component: on Q = t b, tr Q^2 = t^2, tr Q^3 = t^3/sqrt(6)
and the traceless part of Q^2 is t^2/sqrt(6) b, so the kernel with that square map is
exact, and no line pass forms a five-component array.

Each step is preconditioned L-BFGS (Nocedal, Math. Comp. 35, 1980; Liu &
Nocedal, Math. Prog. 45, 1989) with the last m = 2 pairs s (the accepted step)
and y (the old minus the new residual), Euclidean dot products over the node
coefficients, and a pair kept only if s.y > 0. Its initial inverse Hessian
H0 = (sigma I - c lap_h)^-1 holds the elastic term exactly and stands in for the
bulk Hessian with one shift sigma. With sigma = 1/dt it is the semi-implicit
gradient-flow step, implicit in the elastic and explicit in the bulk term (Eyre
1998; Shen & Yang, DCDS-A 28, 2010),

    Q <- Q + (I/dt - c lap_h)^-1 (c lap_h Q - dF_bulk/dQ),

and with no pairs the step is this flow step. A quasi-Newton trial instead takes
the secant-matched shift sigma_k = (s.y - c edge(s)) / |s|^2 of the newest kept
pair, the Rayleigh quotient of the bulk Hessian along s (the Barzilai-Borwein
idea, IMA J. Numer. Anal. 8, 1988, applied to the bulk part only), floored at
0.1/dt. If that trial would raise the energy beyond roundoff, the pairs are
dropped and the flow step at 1/dt is taken instead, with dt halved until it
lowers the energy. Only the bulk term limits dt. The descent keeps one contiguous
component-major (ncomp, nx, ny, nz) array, and each trial makes one pass that gives
both its energy and its residual (``_energy_and_residual``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .bulk import SQRT6, BulkFunctional, Quartic, stationary_scalars
from .errors import DivergenceError, FieldFormatError
from .qtensor import uniaxial_coeffs

__all__ = [
    "Grid3",
    "QField",
    "SolverConfig",
    "SolveReport",
    "discrete_energy",
    "el_residual",
    "minimize",
    "minimize_uniaxial_fixed_director",
    "minimize_on_director_line",
    "harmonic_interior",
    "write_field",
    "read_field",
]

# Accepted steps may raise the energy by at most this many ulps of its scale;
# near a minimum the true decrease per step drops below float resolution.
_ROUNDOFF_ULPS = 64.0

# Number of (s, y) pairs the L-BFGS step keeps. Each pair holds two fields; with
# the secant-matched H0 shift, m = 3, 5 or 8 saved no iteration on a 33^3
# relaxation.
_MEMORY = 2

# Most rows ``SolveReport.trace`` keeps, evenly thinned, first and last included.
_TRACE_ROWS = 32


@dataclass(frozen=True)
class Grid3:
    """Uniform box grid; nodes include the six Dirichlet faces."""

    nx: int
    ny: int
    nz: int
    hx: float
    hy: float
    hz: float

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            if getattr(self, name) < 3:
                raise ValueError(f"Grid3.{name} must be >= 3 (one interior node per axis)")
        for name in ("hx", "hy", "hz"):
            h = getattr(self, name)
            if not h > 0.0:
                raise ValueError(f"Grid3.{name} must be positive")
            # the stencils divide by h^2, which must neither overflow nor underflow
            if not (0.0 < h * h < math.inf and math.isfinite(1.0 / (h * h))):
                raise ValueError(f"Grid3.{name} = {h!r} is out of range (1/{name}^2 must be finite)")
        if not 0.0 < self.node_volume < math.inf:
            raise ValueError("Grid3 node volume hx*hy*hz must be finite and nonzero")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def node_volume(self) -> float:
        return self.hx * self.hy * self.hz


def _face_mask(shape: tuple[int, int, int]) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[1:-1, 1:-1, 1:-1] = False
    mask.setflags(write=False)
    return mask


class QField:
    """Per-node coefficient vectors on a Grid3 with a frozen Dirichlet layer.

    ``values`` has shape (nx, ny, nz, 5); the solver never modifies nodes
    where ``boundary_mask`` is set. Treat instances as immutable and derive
    updated fields through ``with_values``.
    """

    def __init__(self, grid: Grid3, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape + (5,):
            raise ValueError(f"values shape {values.shape} does not match grid {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values
        self.boundary_mask = _face_mask(grid.shape)

    @classmethod
    def constant(cls, grid: Grid3, coeffs) -> "QField":
        values = np.broadcast_to(np.asarray(coeffs, dtype=float), grid.shape + (5,)).copy()
        return cls(grid, values)

    @classmethod
    def from_boundary(cls, grid: Grid3, boundary_values: np.ndarray) -> "QField":
        """Take face nodes from ``boundary_values`` and zero the interior."""
        field = cls(grid, np.asarray(boundary_values, dtype=float).copy())
        field.values[~field.boundary_mask] = 0.0
        return field

    def with_values(self, values: np.ndarray) -> "QField":
        return QField(self.grid, values)

    def norms(self) -> np.ndarray:
        return np.sqrt(np.einsum("...c,...c->...", self.values, self.values))


@dataclass(frozen=True)
class SolverConfig:
    """Gradient-flow parameters."""

    functional: BulkFunctional
    elastic_l: float
    tol_residual: float = 1e-8
    max_iters: int = 200_000

    def __post_init__(self):
        if not self.elastic_l > 0.0:
            raise ValueError("elastic_l must be positive")
        if not self.tol_residual > 0.0:
            raise ValueError("tol_residual must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_energy: float
    final_residual_maxnorm: float
    converged: bool
    energy_history_monotone: bool
    dt_initial: float  # dt never grows, so [dt_final, dt_initial] is the range used
    dt_final: float
    stop_reason: str  # converged | max_iters | step_collapse
    fallbacks: int  # rejected quasi-Newton trials
    rejected_steps: int  # dt halvings
    trace: tuple = ()  # (iteration, energy, residual_maxnorm, H0 shift) rows, thinned
    seed: Optional[int] = None
    hypothesis_met: Optional[bool] = None


_INTERIOR = (slice(None), slice(1, -1), slice(1, -1), slice(1, -1))  # of (ncomp, nx, ny, nz)


def _edge_dirichlet_sum(q: np.ndarray, grid: Grid3, lap: Optional[np.ndarray] = None) -> float:
    """Sum over lattice edges of the squared difference quotient of a (ncomp, nx, ny, nz) field.

    Adds the 7-point Laplacian at the interior nodes into ``lap``, if given: per axis,
    the difference quotient of the same edge differences.
    """
    total = 0.0
    for axis, h in enumerate((grid.hx, grid.hy, grid.hz), start=1):
        d = np.diff(q, axis=axis)
        total += float(np.vdot(d, d)) / h**2
        if lap is not None:
            d /= h**2
            lap += d[_INTERIOR[:axis] + (slice(1, None),) + _INTERIOR[axis + 1:]]
            lap -= d[_INTERIOR[:axis] + (slice(None, -1),) + _INTERIOR[axis + 1:]]
        del d  # before the next axis allocates, so that it reuses the memory
    return total


def _energy_and_residual(q: np.ndarray, grid: Grid3, c: float, bulk) -> tuple[float, np.ndarray]:
    """Energy and residual of a component-major (ncomp, nx, ny, nz) field in one pass.

    ``bulk`` maps q to (density, gradient). The energy is node volume times (density sum +
    (c/2) edge Dirichlet sum); the residual c lap_h q - gradient, zero on the faces, is
    minus its gradient per node volume.
    """
    density, gradient = bulk(q)
    lap = np.zeros((q.shape[0], grid.nx - 2, grid.ny - 2, grid.nz - 2))
    edge = _edge_dirichlet_sum(q, grid, lap)
    lap *= c
    res = np.zeros(q.shape)
    np.subtract(lap, gradient[_INTERIOR], out=res[_INTERIOR])
    return grid.node_volume * (float(np.sum(density)) + 0.5 * c * edge), res


def _field_pass(field: QField, cfg: SolverConfig) -> tuple[float, np.ndarray]:
    return _energy_and_residual(np.moveaxis(field.values, -1, 0).copy(), field.grid,
                                2.0 * cfg.elastic_l, cfg.functional.density_and_gradient)


def discrete_energy(field: QField, cfg: SolverConfig) -> float:
    """Rectangle-rule energy: node volume times (bulk density sum + L * edge Dirichlet sum)."""
    return _field_pass(field, cfg)[0]


def el_residual(field: QField, cfg: SolverConfig) -> np.ndarray:
    """Euler-Lagrange residual 2 L lap_h Q - dF_bulk/dQ, zero on the boundary.

    Equals minus the gradient of ``discrete_energy`` with respect to the node
    coefficients divided by the node volume, exactly, at every interior node.
    """
    return np.moveaxis(_field_pass(field, cfg)[1], 0, -1).copy()


def _max_node_norm(q: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("c...,c...->...", q, q).max()))


def _sampled_hessian_bound(bulk, q: np.ndarray) -> float:
    """Finite-difference bound on the Hessian of ``bulk`` at 64 nodes of ``q`` (ncomp, ...)."""
    flat = q.reshape(q.shape[0], -1)
    sample = flat[:, np.unique(np.linspace(0, flat.shape[1] - 1, 64).astype(int))]
    scale = 1e-4 * (1.0 + np.sqrt(np.einsum("cn,cn->n", sample, sample)))
    # step[c, d, n] = scale[n] if c == d: probe direction d moves component d
    step = np.eye(sample.shape[0])[:, :, None] * scale
    diff = bulk(sample[:, None] + step)[1] - bulk(sample[:, None] - step)[1]
    return 1.5 * float((np.sqrt(np.einsum("cdn,cdn->dn", diff, diff)) / (2.0 * scale)).max())


def _lbfgs_step(res: np.ndarray, pairs: list, solve, sigma: float) -> np.ndarray:
    """The two-loop recursion (Nocedal 1980) applied to ``res`` with H0 = ``solve(., sigma)``.

    ``pairs`` holds (s, y, 1/(s.y)) oldest first; with no pairs this is the plain
    semi-implicit step, and ``res`` is read without a copy. The work array is
    freed before the step is returned.
    """
    work = res.copy() if pairs else res
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * np.vdot(s, work))
        work -= alphas[-1] * y
    step = solve(work, sigma)
    del work
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        step += (alpha - rho * np.vdot(y, step)) * s
    return step


def _bulk_shift(s: np.ndarray, sy: float, grid: Grid3, c: float) -> float:
    """(s.y - c edge(s)) / |s|^2: the bulk Hessian's Rayleigh quotient along the step ``s``.

    ``s`` is zero on the faces, so c edge(s) = -s.(c lap_h s) is the elastic part
    of s.y and the rest is s.(dF_bulk/dQ(Q + s) - dF_bulk/dQ(Q)).
    """
    return (sy - c * _edge_dirichlet_sum(s, grid)) / float(np.vdot(s, s))


# overflow to inf or nan in a pass shows in its energy, and every energy is checked
@np.errstate(over="ignore", invalid="ignore")
def _flow(values: np.ndarray, grid: Grid3, bulk, cfg: SolverConfig,
          hessian_bound=None) -> tuple[np.ndarray, SolveReport]:
    """Energy-monotone L-BFGS flow of ``values`` (nx, ny, nz, ncomp) on interior nodes.

    It runs on a component-major (ncomp, nx, ny, nz) copy with c = 2 ``cfg.elastic_l``,
    the elastic constant of an orthonormal basis (five coefficients, or the unit b of
    the director line). Every trial is one ``_lbfgs_step`` (the last ``_MEMORY`` pairs
    (s, y) applied to the residual with H0 = (sigma I - c lap_h)^-1,
    sigma = max(``_bulk_shift`` of the newest pair, 0.1/dt)) and one
    ``_energy_and_residual`` pass with ``bulk``. If a quasi-Newton trial would
    raise the energy beyond roundoff, the memory is dropped (a fallback) and the plain
    step x solving (I/dt - c lap_h) x = residual is tried, halving dt (a rejected step)
    until it does not. dt starts at 0.9 over ``hessian_bound`` of the component-major
    initial field, by default the sampled Hessian bound of ``bulk`` on it
    (``_sampled_hessian_bound``).
    ``energy_history_monotone`` is False if an accepted energy ever rose above the
    lowest one before it by more than that allowance. The report's ``trace`` holds
    (iteration, energy, residual max norm, shift of the accepted trial) for the
    initial field and each accepted iterate, thinned to ``_TRACE_ROWS`` rows.
    """
    c = 2.0 * cfg.elastic_l
    q = np.moveaxis(values, -1, 0).copy()
    energy, res = _energy_and_residual(q, grid, c, bulk)
    if not math.isfinite(energy):
        raise DivergenceError("initial field has non-finite energy")
    if hessian_bound is None:
        hessian_bound = partial(_sampled_hessian_bound, bulk)
    dt = dt_initial = 0.9 / hessian_bound(q)
    solve = _shifted_solver(grid, c)
    iterations = fallbacks = rejected_steps = 0
    lowest, monotone = energy, True
    pairs: list = []  # (s, y, 1/(s.y)), oldest first
    bulk_shift = 0.0  # the newest pair's bulk Rayleigh quotient
    shift = None  # of the accepted trial; the initial field has none
    history = []
    while True:
        rmax = _max_node_norm(res)
        history.append((iterations, energy, rmax, shift))
        if rmax <= cfg.tol_residual:
            stop_reason = "converged"
            break
        if iterations >= cfg.max_iters:
            stop_reason = "max_iters"
            break
        allowance = _ROUNDOFF_ULPS * np.finfo(float).eps * max(1.0, abs(energy))
        limit = energy + allowance
        # a quasi-Newton trial if there are pairs, then the plain step and up to 60 halvings
        for _ in range(61 + bool(pairs)):
            shift = max(bulk_shift, 0.1 / dt) if pairs else 1.0 / dt
            step = _lbfgs_step(res, pairs, solve, shift)
            trial = q + step
            trial_energy, trial_res = _energy_and_residual(trial, grid, c, bulk)
            if -math.inf < trial_energy <= limit:  # NaN and infinities fail
                break
            if pairs:
                fallbacks += 1
                pairs.clear()
            else:
                dt *= 0.5
                rejected_steps += 1
        else:
            if not math.isfinite(trial_energy):
                raise DivergenceError("gradient flow produced a non-finite energy")
            stop_reason = "step_collapse"
            break
        monotone = monotone and bool(trial_energy <= lowest + allowance)
        lowest = min(lowest, trial_energy)
        q = trial
        energy = trial_energy
        iterations += 1
        if len(pairs) == _MEMORY:
            del pairs[:1]
        y = res
        y -= trial_res
        res = trial_res
        sy = float(np.vdot(step, y))
        if sy > 0.0 and len(pairs) < _MEMORY:  # False at every step when _MEMORY is 0
            pairs.append((step, y, 1.0 / sy))
            bulk_shift = _bulk_shift(step, sy, grid, c)
        del step, y
    return np.moveaxis(q, 0, -1).copy(), SolveReport(
        iterations=iterations,
        final_energy=energy,
        final_residual_maxnorm=rmax,
        converged=stop_reason == "converged",
        energy_history_monotone=monotone,
        dt_initial=dt_initial,
        dt_final=dt,
        stop_reason=stop_reason,
        fallbacks=fallbacks,
        rejected_steps=rejected_steps,
        trace=_thin(history),
    )


def _thin(rows: list) -> tuple:
    """At most ``_TRACE_ROWS`` evenly spaced rows of ``rows``, the first and the last included."""
    n = len(rows)
    if n <= _TRACE_ROWS:
        return tuple(rows)
    return tuple(rows[i * (n - 1) // (_TRACE_ROWS - 1)] for i in range(_TRACE_ROWS))


def minimize(initial: QField, cfg: SolverConfig) -> tuple[QField, SolveReport]:
    """Relax a field by energy-monotone preconditioned L-BFGS on interior nodes.

    The boundary layer of ``initial`` is the Dirichlet datum and is never
    touched. Convergence means the residual max node norm fell below
    ``cfg.tol_residual``; hitting ``max_iters`` or a collapsed step returns the
    best (latest) iterate with ``converged`` False, and ``stop_reason`` says which.
    """
    values, report = _flow(initial.values, initial.grid, cfg.functional.density_and_gradient, cfg)
    return initial.with_values(values), report


def _line_square(t: np.ndarray) -> np.ndarray:
    """The traceless square of Q = t b, b the unit uniaxial tensor, as its coordinate on b."""
    return t * t / SQRT6


def minimize_on_director_line(start: QField, director,
                              cfg: SolverConfig) -> tuple[QField, SolveReport]:
    """Relax ``start`` on the line Q = t b of the unit uniaxial tensor b along ``director``.

    Fields s(x) (n x n - I/3) with a constant n stay on that line under the flow, since
    the Laplacian and the bulk gradient (built from Q and Q^2) keep them there. So the
    flow runs on the one coordinate t = b.Q with c = 2 L (|b| = 1): the five-component
    flow's energies, residual norms, dt and shifts, at one component's cost. dt starts
    from the five-component Hessian bound on the lifted start. Five-component ``minimize``
    then certifies t b, with the face bits of ``start``, on the iterations the line left;
    one report covers both (``_merge_reports``).
    """
    unit = uniaxial_coeffs(1.0, director)
    unit /= np.linalg.norm(unit)
    fun = cfg.functional

    def hessian_bound(t):  # of the five-component kernel, off the line too
        return _sampled_hessian_bound(fun.density_and_gradient, np.multiply.outer(unit, t[0]))

    t, line = _flow((start.values @ unit)[..., None], start.grid,
                    partial(fun.density_and_gradient, square=_line_square), cfg, hessian_bound)
    values = np.multiply.outer(t[..., 0], unit)
    values[start.boundary_mask] = start.values[start.boundary_mask]
    field, check = minimize(start.with_values(values),
                            replace(cfg, max_iters=cfg.max_iters - line.iterations))
    return field, _merge_reports(line, check)


def minimize_uniaxial_fixed_director(grid: Grid3, s_boundary, director,
                                     cfg: SolverConfig) -> tuple[np.ndarray, SolveReport]:
    """Minimize over uniaxial fields s(x) (n x n - I/3) with a fixed director n.

    ``s_boundary`` is a constant or an (nx, ny, nz) array whose face entries
    supply the Dirichlet datum; the interior starts at their mean. This is
    ``minimize_on_director_line`` in s units, its check included: n x n - I/3 = |B| b
    with |B| = sqrt(2/3) and b the unit uniaxial tensor, so s = t/|B|, the s-residual is
    |B| times the t-residual, and the run's tolerance is ``cfg.tol_residual``/|B|. The
    report's residuals are in s units; its dt and shifts are the flows'. Its
    ``hypothesis_met`` records whether 0 < s_boundary < min(s_plus, 1) held pointwise
    (only checkable for the quartic functional); the run proceeds either way.
    """
    s_boundary = np.broadcast_to(np.asarray(s_boundary, dtype=float), grid.shape)
    mask = _face_mask(grid.shape)
    bvals = s_boundary[mask]
    if not np.isfinite(bvals).all():
        raise ValueError("s_boundary face values must be finite")
    with np.errstate(over="ignore"):  # a sum past the float range: average scaled values
        mean = float(bvals.mean())
    s = s_boundary.copy()
    s[1:-1, 1:-1, 1:-1] = mean if math.isfinite(mean) else float(np.sum(bvals / bvals.size))

    fun = cfg.functional
    hypothesis: Optional[bool] = None
    if isinstance(fun, Quartic):
        s_plus = stationary_scalars(fun.material, fun.temperature).s_plus
        hypothesis = s_plus is not None and bool(
            (bvals > 0.0).all() and (bvals < min(s_plus, 1.0)).all())

    base = uniaxial_coeffs(1.0, director)
    norm = float(np.linalg.norm(base))
    final, report = minimize_on_director_line(
        QField(grid, uniaxial_coeffs(s, director)), director,
        replace(cfg, tol_residual=cfg.tol_residual / norm))
    s = final.values @ base / norm**2
    s[mask] = bvals
    trace = tuple((k, energy, norm * rmax, shift) for k, energy, rmax, shift in report.trace)
    return s, replace(report, final_residual_maxnorm=norm * report.final_residual_maxnorm,
                      trace=trace, hypothesis_met=hypothesis)


def _merge_reports(line: SolveReport, check: SolveReport) -> SolveReport:
    """One report for a line relaxation and the five-component ``minimize`` from its end.

    The counts, dt range and trace rows are the line's trials; the final energy and
    residual, ``converged`` and ``stop_reason`` are the check's, and so is the energy
    and residual of the line's last row. Trials the check took add their counts and rows.
    """
    *rows, (iteration, _, _, shift) = line.trace
    (_, energy, rmax, _), *more = check.trace
    rows.append((iteration, energy, rmax, shift))
    rows += [(iteration + i, e, r, sigma) for i, e, r, sigma in more]
    dt_initial, dt_final = line.dt_initial, line.dt_final
    if check.iterations + check.fallbacks + check.rejected_steps:  # the check took trials
        dt_initial, dt_final = max(dt_initial, check.dt_initial), min(dt_final, check.dt_final)
    return replace(
        check,
        iterations=line.iterations + check.iterations,
        energy_history_monotone=line.energy_history_monotone and check.energy_history_monotone,
        dt_initial=dt_initial,
        dt_final=dt_final,
        fallbacks=line.fallbacks + check.fallbacks,
        rejected_steps=line.rejected_steps + check.rejected_steps,
        trace=_thin(rows),
    )


def _dirichlet_eigh(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the 1-D Dirichlet second-difference matrix on m interior nodes."""
    return np.linalg.eigh((np.eye(m, k=-1) - 2.0 * np.eye(m) + np.eye(m, k=1)) / h**2)


def _shifted_solver(grid: Grid3, c: float):
    """Return ``solve(b, sigma)`` for (sigma I - c lap_h) x = b, sigma >= 0, c > 0.

    Fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964) in the eigenbasis
    of the three axes' 1-D Dirichlet second differences, computed once here. ``b`` is
    component-major (ncomp, nx, ny, nz); its face entries are ignored and x is zero on
    the faces.
    """
    (lx, vx), (ly, vy), (lz, vz) = (
        _dirichlet_eigh(n - 2, h) for n, h in zip(grid.shape, (grid.hx, grid.hy, grid.hz)))
    lam = -c * (lx[:, None, None] + ly[:, None] + lz)

    def apply(u, ax, ay, az):  # one axis at a time: batched x and y matmuls, one z GEMM
        n, mx, my, mz = u.shape
        u = (ax @ u.reshape(n, mx, my * mz)).reshape(n * mx, my, mz)
        u = (ay @ u).reshape(n * mx * my, mz)
        return (u @ az.T).reshape(n, mx, my, mz)

    def solve(b: np.ndarray, sigma: float) -> np.ndarray:
        hat = apply(b[_INTERIOR], vx.T, vy.T, vz.T)
        hat /= sigma + lam
        x = np.zeros(b.shape)
        x[_INTERIOR] = apply(hat, vx, vy, vz)
        return x

    return solve


def harmonic_interior(field: QField) -> QField:
    """Fill the interior with the discrete-harmonic extension of the boundary data.

    Solves the 7-point Laplace equation exactly (the shifted solver at sigma = 0,
    boundary values moved to the right-hand side); boundary bits are unchanged.
    """
    q = np.moveaxis(field.values, -1, 0).copy()
    q[_INTERIOR] = 0.0
    lap = np.zeros(q.shape)
    _edge_dirichlet_sum(q, field.grid, lap[_INTERIOR])
    q[_INTERIOR] = _shifted_solver(field.grid, 1.0)(lap, 0.0)[_INTERIOR]
    return field.with_values(np.moveaxis(q, 0, -1).copy())


def _node_index(grid: Grid3) -> np.ndarray:
    """The (i, j, k) of each LDGQ1 node line, i slowest and k fastest, as (nx, ny * nz, 3)."""
    return np.moveaxis(np.indices(grid.shape), 0, -1).reshape(grid.nx, -1, 3)


def write_field(path, field: QField) -> None:
    """Write a field in the LDGQ1 text format with round-trip floats, one i-plane at a time."""
    grid = field.grid
    with open(path, "w") as fh:
        fh.write(f"LDGQ1 {grid.nx} {grid.ny} {grid.nz} "
                 f"{float(grid.hx)!r} {float(grid.hy)!r} {float(grid.hz)!r}\n")
        for index, plane in zip(_node_index(grid), field.values):
            fh.write("".join(f"{i} {j} {k} {a!r} {b!r} {c!r} {d!r} {e!r}\n"
                             for (i, j, k), (a, b, c, d, e)
                             in zip(index.tolist(), plane.reshape(-1, 5).tolist())))


# One LDGQ1 node line: three integer indices, then the five coefficients.
_NODE_ROW = np.dtype([("index", np.int64, (3,)), ("coeffs", np.float64, (5,))])


def read_field(path) -> QField:
    """Read an LDGQ1 file; format violations raise with the file's own line number.

    The body is parsed in one ``np.loadtxt`` call and checked as arrays. Only a
    body that parse rejects, or that fails a check, goes through the per-line
    reader, which accepts or rejects it and names the offending line.
    """
    with open(path) as fh:
        grid = _read_header(path, fh)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. an empty body: let the line reader judge
                rows = np.loadtxt(fh, dtype=_NODE_ROW, comments=None, ndmin=1)
        except (ValueError, Warning):
            rows = None
        # the row count first: the node table has the header's size
        if (
            rows is not None
            and len(rows) == grid.nx * grid.ny * grid.nz
            and np.array_equal(rows["index"].reshape(grid.nx, -1, 3), _node_index(grid))
            and np.isfinite(rows["coeffs"]).all()
        ):
            return QField(grid, np.ascontiguousarray(rows["coeffs"]).reshape(grid.shape + (5,)))
        return QField(grid, _read_node_lines(path, fh, grid))


def _read_header(path, fh) -> Grid3:
    header = fh.readline()
    if not header:
        raise FieldFormatError(f"{path}: empty file")
    header = header.split()
    if len(header) != 7 or header[0] != "LDGQ1":
        raise FieldFormatError(f"{path}: line 1: expected header 'LDGQ1 nx ny nz hx hy hz'")
    try:
        nx, ny, nz = (int(tok) for tok in header[1:4])
        hx, hy, hz = (float(tok) for tok in header[4:7])
    except ValueError as exc:
        raise FieldFormatError(f"{path}: line 1: malformed header ({exc})") from None
    try:
        return Grid3(nx, ny, nz, hx, hy, hz)
    except ValueError as exc:
        raise FieldFormatError(f"{path}: line 1: {exc}") from None


def _read_node_lines(path, fh, grid: Grid3) -> np.ndarray:
    """Line-by-line reader of the body, in two streaming passes over ``fh``."""
    fh.seek(0)
    fh.readline()
    expected = grid.nx * grid.ny * grid.nz
    found = sum(1 for ln in fh if ln.strip())
    if found != expected:
        raise FieldFormatError(f"{path}: expected {expected} node lines, found {found}")
    fh.seek(0)
    # blank lines are skipped but counted, so diagnostics name the file's own line
    lines = ((n, ln.split()) for n, ln in enumerate(fh, start=1) if n > 1 and ln.strip())
    nodes = (node for index in _node_index(grid) for node in index.tolist())
    values = np.empty((expected, 5))
    for row, ((lineno, toks), (i, j, k)) in enumerate(zip(lines, nodes)):
        if len(toks) != 8:
            raise FieldFormatError(f"{path}: line {lineno}: expected 8 fields")
        try:
            ii, jj, kk = int(toks[0]), int(toks[1]), int(toks[2])
            q = [float(tok) for tok in toks[3:]]
        except ValueError as exc:
            raise FieldFormatError(f"{path}: line {lineno}: {exc}") from None
        if (ii, jj, kk) != (i, j, k):
            raise FieldFormatError(f"{path}: line {lineno}: node index ({ii} {jj} {kk}) "
                                   f"out of order, expected ({i} {j} {k})")
        if not all(math.isfinite(v) for v in q):
            raise FieldFormatError(f"{path}: line {lineno}: non-finite value")
        values[row] = q
    return values.reshape(grid.shape + (5,))
