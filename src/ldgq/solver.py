"""Finite-difference discretization and energy-monotone gradient flow.

The energy on a box grid with Dirichlet faces is a rectangle-rule sum of the
bulk density over nodes plus the elastic Dirichlet form summed over lattice
edges, every term weighted with the full cell volume. With that quadrature
the Euler-Lagrange residual (twice the elastic constant times the 7-point
Laplacian minus the bulk gradient) is the exact negative energy gradient per
unit node volume at every interior node. One descent loop serves both
minimizers: ``minimize`` relaxes the five coefficients with c = 2 L, and
``minimize_uniaxial_fixed_director`` relaxes the scalar s of
Q = s (n x n - I/3) for a fixed n with c = (4/3) L, on the full energy
restricted to that line.

Each step is preconditioned L-BFGS (Nocedal, Math. Comp. 35, 1980; Liu &
Nocedal, Math. Prog. 45, 1989) with the last m = 2 pairs s (the accepted step)
and y (the old minus the new residual), Euclidean dot products over the node
coefficients, and a pair kept only if s.y > 0. Its initial inverse Hessian H0 is
the semi-implicit gradient-flow step, implicit in the elastic and explicit in
the bulk term (Eyre 1998; Shen & Yang, DCDS-A 28, 2010),

    Q <- Q + (I/dt - c lap_h)^-1 (c lap_h Q - dF_bulk/dQ),

applied unscaled; with no pairs the step is this flow step. If the quasi-Newton
trial would raise the energy beyond roundoff, the pairs are dropped and the
flow step is taken instead, with dt halved until it lowers the energy. Only the
bulk term limits dt.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bulk import BulkFunctional, Quartic, stationary_scalars
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
    "harmonic_interior",
    "write_field",
    "read_field",
]

# Accepted steps may raise the energy by at most this many ulps of its scale;
# near a minimum the true decrease per step drops below float resolution.
_ROUNDOFF_ULPS = 64.0

# Number of (s, y) pairs the L-BFGS step keeps. Each pair holds two fields; a
# third pair saved no iteration on a 33^3 relaxation.
_MEMORY = 2


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
    mask = np.zeros(shape, dtype=bool)
    mask[0, :, :] = mask[-1, :, :] = True
    mask[:, 0, :] = mask[:, -1, :] = True
    mask[:, :, 0] = mask[:, :, -1] = True
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
    dt_final: float
    stop_reason: str  # converged | max_iters | step_collapse
    fallbacks: int  # rejected quasi-Newton trials
    rejected_steps: int  # dt halvings
    seed: Optional[int] = None
    hypothesis_met: Optional[bool] = None


def _laplacian(values: np.ndarray, grid: Grid3) -> np.ndarray:
    """7-point Laplacian; entries are only meaningful at interior nodes."""
    lap = np.zeros_like(values)
    lap[1:-1, :, :] += (values[2:, :, :] - 2.0 * values[1:-1, :, :] + values[:-2, :, :]) / grid.hx**2
    lap[:, 1:-1, :] += (values[:, 2:, :] - 2.0 * values[:, 1:-1, :] + values[:, :-2, :]) / grid.hy**2
    lap[:, :, 1:-1] += (values[:, :, 2:] - 2.0 * values[:, :, 1:-1] + values[:, :, :-2]) / grid.hz**2
    return lap


def _edge_dirichlet_sum(values: np.ndarray, grid: Grid3) -> float:
    """Sum over lattice edges of the squared difference quotient."""
    total = np.sum(((values[1:, :, :] - values[:-1, :, :]) / grid.hx) ** 2)
    total += np.sum(((values[:, 1:, :] - values[:, :-1, :]) / grid.hy) ** 2)
    total += np.sum(((values[:, :, 1:] - values[:, :, :-1]) / grid.hz) ** 2)
    return float(total)


def _energy(values: np.ndarray, grid: Grid3, c: float, density) -> float:
    """Node volume times (bulk density sum + (c/2) * edge Dirichlet sum)."""
    return grid.node_volume * (float(np.sum(density(values)))
                               + 0.5 * c * _edge_dirichlet_sum(values, grid))


def _residual(values: np.ndarray, grid: Grid3, c: float, gradient) -> np.ndarray:
    """c lap_h - gradient, zero on the faces: minus the energy gradient per node volume."""
    res = c * _laplacian(values, grid) - gradient(values)
    res[_face_mask(grid.shape)] = 0.0
    return res


def discrete_energy(field: QField, cfg: SolverConfig) -> float:
    """Rectangle-rule energy: node volume times (bulk density sum + L * edge Dirichlet sum)."""
    return _energy(field.values, field.grid, 2.0 * cfg.elastic_l, cfg.functional.density)


def el_residual(field: QField, cfg: SolverConfig) -> np.ndarray:
    """Euler-Lagrange residual 2 L lap_h Q - dF_bulk/dQ, zero on the boundary.

    Equals minus the gradient of ``discrete_energy`` with respect to the node
    coefficients divided by the node volume, exactly, at every interior node.
    """
    return _residual(field.values, field.grid, 2.0 * cfg.elastic_l, cfg.functional.gradient)


def _max_node_norm(arr: np.ndarray) -> float:
    return float(np.sqrt(np.einsum("...c,...c->...", arr, arr).max()))


def _sampled_hessian_bound(fun: BulkFunctional, values: np.ndarray) -> float:
    """Directional finite-difference bound on the bulk Hessian over sampled nodes."""
    flat = values.reshape(-1, values.shape[-1])
    idx = np.unique(np.linspace(0, flat.shape[0] - 1, 64).astype(int))
    sample = flat[idx]
    scale = 1e-4 * (1.0 + np.sqrt(np.einsum("nc,nc->n", sample, sample)))
    bound = 0.0
    for c in range(sample.shape[1]):
        step = np.zeros_like(sample)
        step[:, c] = scale
        diff = fun.gradient(sample + step) - fun.gradient(sample - step)
        est = np.sqrt(np.einsum("nc,nc->n", diff, diff)) / (2.0 * scale)
        bound = max(bound, float(est.max()))
    return 1.5 * bound


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


def _flow(values: np.ndarray, grid: Grid3, c: float, density, gradient, coeffs: np.ndarray,
          cfg: SolverConfig) -> tuple[np.ndarray, SolveReport]:
    """Energy-monotone L-BFGS flow of ``_energy(values, grid, c, density)`` on interior nodes.

    Every trial is ``_lbfgs_step``: the last ``_MEMORY`` pairs (s, y) applied to the
    residual ``_residual(values, grid, c, gradient)`` with H0 = (I/dt - c lap_h)^-1. If
    a quasi-Newton trial would raise the energy beyond roundoff, the memory is dropped
    (a fallback) and the plain step x solving (I/dt - c lap_h) x = residual is tried,
    halving dt (a rejected step) until it does not. dt starts at 0.9 over the sampled
    bulk Hessian bound of ``cfg.functional`` at ``coeffs``, the five-coefficient field
    of ``values``. ``energy_history_monotone`` is False if an accepted energy ever rose
    above the lowest one before it by more than that allowance.
    """
    energy = _energy(values, grid, c, density)
    if not math.isfinite(energy):
        raise DivergenceError("initial field has non-finite energy")
    dt = 0.9 / _sampled_hessian_bound(cfg.functional, coeffs)
    solve = _shifted_solver(grid, c)
    iterations = fallbacks = rejected_steps = 0
    lowest, monotone = energy, True
    pairs: list = []  # (s, y, 1/(s.y)), oldest first
    res = _residual(values, grid, c, gradient)
    while True:
        rmax = _max_node_norm(res)
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
            step = _lbfgs_step(res, pairs, solve, 1.0 / dt)
            trial = values + step
            trial_energy = _energy(trial, grid, c, density)
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
        values = trial
        energy = trial_energy
        iterations += 1
        if len(pairs) == _MEMORY:
            del pairs[:1]  # the oldest, before the new residual is allocated
        y = res
        res = _residual(values, grid, c, gradient)
        y -= res
        sy = float(np.vdot(step, y))
        if sy > 0.0 and len(pairs) < _MEMORY:
            pairs.append((step, y, 1.0 / sy))
        del step, y
    return values, SolveReport(
        iterations=iterations,
        final_energy=energy,
        final_residual_maxnorm=rmax,
        converged=stop_reason == "converged",
        energy_history_monotone=monotone,
        dt_final=dt,
        stop_reason=stop_reason,
        fallbacks=fallbacks,
        rejected_steps=rejected_steps,
    )


def minimize(initial: QField, cfg: SolverConfig) -> tuple[QField, SolveReport]:
    """Relax a field by energy-monotone preconditioned L-BFGS on interior nodes.

    The boundary layer of ``initial`` is the Dirichlet datum and is never
    touched. Convergence means the residual max node norm fell below
    ``cfg.tol_residual``; hitting ``max_iters`` or a collapsed step returns the
    best (latest) iterate with ``converged`` False, and ``stop_reason`` says which.
    """
    if not math.isfinite(discrete_energy(initial, cfg)):
        raise DivergenceError("initial field has non-finite energy")
    fun = cfg.functional
    values, report = _flow(initial.values.copy(), initial.grid, 2.0 * cfg.elastic_l,
                           fun.density, fun.gradient, initial.values, cfg)
    return initial.with_values(values), report


def minimize_uniaxial_fixed_director(
    grid: Grid3,
    s_boundary,
    director,
    cfg: SolverConfig,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize over uniaxial fields s(x) (n x n - I/3) with a fixed director n.

    ``s_boundary`` is a constant or an (nx, ny, nz) array whose face entries
    supply the Dirichlet datum. The elastic density reduces to (2/3) L |grad s|^2,
    so the scalar flow uses (4/3) L times the scalar Laplacian. The report's
    ``hypothesis_met`` records whether 0 < s_boundary < min(s_plus, 1) held
    pointwise (only checkable for the quartic functional); the run proceeds
    either way.
    """
    mask = _face_mask(grid.shape)
    s = np.zeros(grid.shape)
    s_boundary = np.broadcast_to(np.asarray(s_boundary, dtype=float), grid.shape)
    s[mask] = s_boundary[mask]
    s[~mask] = float(s_boundary[mask].mean())

    fun = cfg.functional
    base = uniaxial_coeffs(1.0, director)

    hypothesis: Optional[bool] = None
    if isinstance(fun, Quartic):
        rep = stationary_scalars(fun.material, fun.temperature)
        if rep.s_plus is None:
            hypothesis = False
        else:
            cap = min(rep.s_plus, 1.0)
            bvals = s_boundary[mask]
            hypothesis = bool((bvals > 0.0).all() and (bvals < cap).all())

    # the scalar order parameter rides along as a single trailing component
    def gradient(svals):
        return np.einsum("...c,c->...", fun.gradient(svals * base), base)[..., None]

    values, report = _flow(s[..., None], grid, (4.0 / 3.0) * cfg.elastic_l,
                           lambda svals: fun.density(svals * base), gradient,
                           s[..., None] * base, cfg)
    return values[..., 0].copy(), replace(report, hypothesis_met=hypothesis)


def _dirichlet_eigh(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the 1-D Dirichlet second-difference matrix on m interior nodes."""
    return np.linalg.eigh((np.eye(m, k=-1) - 2.0 * np.eye(m) + np.eye(m, k=1)) / h**2)


def _shifted_solver(grid: Grid3, c: float):
    """Return ``solve(b, sigma)`` for (sigma I - c lap_h) x = b, sigma >= 0, c > 0.

    Fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964) in the eigenbasis
    of the three axes' 1-D Dirichlet second differences, computed once here. ``b`` is
    (nx, ny, nz, ncomp); its face entries are ignored and x is zero on the faces.
    """
    (lx, vx), (ly, vy), (lz, vz) = (
        _dirichlet_eigh(n - 2, h) for n, h in zip(grid.shape, (grid.hx, grid.hy, grid.hz)))
    lam = (-c * (lx[:, None, None] + ly[:, None] + lz))[..., None]

    def apply(u, ax, ay, az):  # one axis at a time, each contraction a plain matmul
        mx, my, mz, n = u.shape
        u = (ay @ (ax @ u.reshape(mx, -1)).reshape(mx, my, mz * n)).reshape(mx * my, mz, n)
        return (az @ u).reshape(mx, my, mz, n)

    def solve(b: np.ndarray, sigma: float) -> np.ndarray:
        x = np.zeros(b.shape)
        hat = apply(b[1:-1, 1:-1, 1:-1], vx.T, vy.T, vz.T) / (sigma + lam)
        x[1:-1, 1:-1, 1:-1] = apply(hat, vx, vy, vz)
        return x

    return solve


def harmonic_interior(field: QField) -> QField:
    """Fill the interior with the discrete-harmonic extension of the boundary data.

    Solves the 7-point Laplace equation exactly (the shifted solver at sigma = 0,
    boundary values moved to the right-hand side); boundary bits are unchanged.
    """
    values = field.values.copy()
    values[1:-1, 1:-1, 1:-1] = 0.0
    x = _shifted_solver(field.grid, 1.0)(_laplacian(values, field.grid), 0.0)
    values[1:-1, 1:-1, 1:-1] = x[1:-1, 1:-1, 1:-1]
    return field.with_values(values)


def write_field(path, field: QField) -> None:
    """Write a field in the LDGQ1 text format with round-trip float precision."""
    grid = field.grid
    lines = [
        f"LDGQ1 {grid.nx} {grid.ny} {grid.nz} "
        f"{float(grid.hx)!r} {float(grid.hy)!r} {float(grid.hz)!r}"
    ]
    vals = field.values
    for i in range(grid.nx):
        for j in range(grid.ny):
            for k in range(grid.nz):
                q = vals[i, j, k]
                lines.append(
                    f"{i} {j} {k} "
                    f"{float(q[0])!r} {float(q[1])!r} {float(q[2])!r} "
                    f"{float(q[3])!r} {float(q[4])!r}"
                )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
        # array_equal also checks the row count
        if (
            rows is not None
            and np.array_equal(rows["index"], np.indices(grid.shape).reshape(3, -1).T)
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
    nodes = ((n, ln.split()) for n, ln in enumerate(fh, start=1) if n > 1 and ln.strip())
    values = np.empty(grid.shape + (5,))
    for i in range(grid.nx):
        for j in range(grid.ny):
            for k in range(grid.nz):
                lineno, toks = next(nodes)
                if len(toks) != 8:
                    raise FieldFormatError(f"{path}: line {lineno}: expected 8 fields")
                try:
                    ii, jj, kk = int(toks[0]), int(toks[1]), int(toks[2])
                    q = [float(tok) for tok in toks[3:]]
                except ValueError as exc:
                    raise FieldFormatError(f"{path}: line {lineno}: {exc}") from None
                if (ii, jj, kk) != (i, j, k):
                    raise FieldFormatError(
                        f"{path}: line {lineno}: node index ({ii} {jj} {kk}) out of order, "
                        f"expected ({i} {j} {k})"
                    )
                if not all(math.isfinite(v) for v in q):
                    raise FieldFormatError(f"{path}: line {lineno}: non-finite value")
                values[i, j, k] = q
    return values
