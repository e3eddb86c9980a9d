"""Bulk free-energy densities and their closed-form phase analysis.

Three bulk variants share one kernel: an even-degree polynomial in the
invariants tr Q^2 and tr Q^3, the quartic density as its degree-4 case, and
the quartic plus a Ginzburg-Landau style penalty that activates once |Q|
leaves the physically admissible ball. Densities and gradients are vectorized
over leading array axes so a whole lattice evaluates in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import RegimeError
from .qtensor import QTensor, square_coeffs, trace_invariants

__all__ = [
    "Material",
    "BulkFunctional",
    "Quartic",
    "Polynomial",
    "GLPenalized",
    "StationaryReport",
    "StationaryColumns",
    "CharacteristicTemperatures",
    "a_of_temperature",
    "f_bulk",
    "bulk_gradient",
    "nematic_root",
    "stationary_columns",
    "stationary_scalars",
    "characteristic_temperatures",
    "bulk_triangle_scale",
    "bulk_triangle",
    "poly_bound_C",
    "gl_bound",
]

SQRT6 = np.sqrt(6.0)


@dataclass(frozen=True)
class Material:
    """Bulk and elastic constants of a nematic material.

    alpha: slope of the quadratic coefficient with temperature (energy density
    per degree); b, c: cubic and quartic bulk constants (energy density);
    t_star: supercooling temperature where the quadratic coefficient vanishes;
    elastic_l: one-constant elastic coefficient (energy per length).
    """

    alpha: float
    b: float
    c: float
    t_star: float
    elastic_l: float

    def __post_init__(self):
        for name in ("alpha", "b", "c", "elastic_l"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"Material.{name} must be positive")
        # the closed forms square b, multiply alpha by c, and reach densities of size b^4/c^3
        ratio = self.b / self.c
        scales = (self.b * self.b, self.alpha * self.c, self.b * ratio * ratio * ratio)
        if not all(math.isfinite(x) for x in (*scales, self.t_star, self.elastic_l)):
            raise ValueError("Material constants overflow: b^2, alpha c, b^4/c^3, t_star "
                             "and elastic_l must be finite")


def a_of_temperature(m: Material, t: float) -> float:
    """Quadratic bulk coefficient a = alpha * (T - T*)."""
    return m.alpha * (t - m.t_star)


class BulkFunctional:
    """Density a2 tr Q^2 + sum of co (tr Q^2)^m (tr Q^3)^p over the ``terms`` (m, p, co).

    Subclasses supply ``a2`` and ``terms``; ``GLPenalized`` wraps its quartic instead.
    """

    def density(self, coeffs) -> np.ndarray:
        """Bulk energy density for coefficient arrays of shape (..., 5)."""
        tr2, tr3 = trace_invariants(coeffs)
        out = self.a2 * tr2
        for m, p, co in self.terms:
            out = out + co * tr2**m * tr3**p
        return out

    def gradient(self, coeffs) -> np.ndarray:
        """Traceless-projected derivative of the density, shape (..., 5).

        Exact (to roundoff) gradient of ``density`` in the basis coefficients,
        from d tr Q^2 = 2 c and d tr Q^3 = 3 square_coeffs(c); the trace
        constraint never enters because the basis spans only traceless matrices.
        """
        c = np.asarray(coeffs, dtype=float)
        sq = square_coeffs(c)
        tr2 = np.einsum("...c,...c->...", c, c)
        tr3 = np.einsum("...c,...c->...", c, sq)
        out = 2.0 * self.a2 * c
        for m, p, co in self.terms:
            if m:
                out = out + (2.0 * m * co) * (tr2 ** (m - 1) * tr3**p)[..., None] * c
            if p:
                out = out + (3.0 * p * co) * (tr2**m * tr3 ** (p - 1))[..., None] * sq
        return out


@dataclass(frozen=True)
class Quartic(BulkFunctional):
    """Quartic density (a/2) tr Q^2 - (b/3) tr Q^3 + (c/4) (tr Q^2)^2: the degree-4 law."""

    material: Material
    temperature: float

    @property
    def a(self) -> float:
        return a_of_temperature(self.material, self.temperature)

    @property
    def a2(self) -> float:
        return 0.5 * self.a

    @property
    def terms(self) -> tuple[tuple[int, int, float], ...]:
        return ((0, 1, -self.material.b / 3.0), (2, 0, self.material.c / 4.0))


@dataclass(frozen=True)
class Polynomial(BulkFunctional):
    """Even-degree polynomial bulk density in the invariants tr Q^2 and tr Q^3.

    The density is a2 * trQ2 + sum of coeff * trQ2^m * trQ3^p over ``terms``.
    Construction enforces the structure that makes the density coercive with
    isotropic/uniaxial stationary points: a cubic term (0, 1) with negative
    coefficient, a quartic term (2, 0) with positive coefficient, even total
    degree n = max(2m + 3p) >= 4, and the top-degree pure-trQ2 coefficient
    dominating the summed magnitudes of the top-degree mixed terms.
    """

    a2: float
    terms: tuple[tuple[int, int, float], ...]
    degree: int = field(init=False, repr=False)

    def __post_init__(self):
        terms = tuple((int(m), int(p), float(co)) for m, p, co in self.terms)
        object.__setattr__(self, "terms", terms)
        seen = set()
        for m, p, co in terms:
            if m < 0 or p < 0:
                raise ValueError("term exponents must be nonnegative")
            if (m, p) in seen:
                raise ValueError(f"duplicate term ({m}, {p})")
            seen.add((m, p))
        degs = [2 * m + 3 * p for m, p, _ in terms]
        if not degs:
            raise ValueError("polynomial needs at least cubic and quartic terms")
        n = max(degs)
        if n < 4 or n % 2:
            raise ValueError(f"total degree must be even and >= 4, got {n}")
        by_mp = {(m, p): co for m, p, co in terms}
        if by_mp.get((0, 1), 0.0) >= 0.0:
            raise ValueError("cubic coefficient must be negative (term (0, 1))")
        if by_mp.get((2, 0), 0.0) <= 0.0:
            raise ValueError("quartic coefficient must be positive (term (2, 0))")
        top_pure = by_mp.get((n // 2, 0), 0.0)
        top_mixed = sum(abs(co) for m, p, co in terms if p >= 1 and 2 * m + 3 * p == n)
        if not top_pure > top_mixed:
            raise ValueError(
                "top-degree trQ2 coefficient must dominate the top-degree mixed terms"
            )
        object.__setattr__(self, "degree", n)


@dataclass(frozen=True)
class GLPenalized(BulkFunctional):
    """Quartic density plus a penalty that activates for |Q| > 1/sqrt(6).

    The penalty (|Q|^2 - 1/6)^2 / eps^2 is C1 but not C2 at the threshold;
    gradient flow only needs C1, so no smoothing is applied.
    """

    material: Material
    temperature: float
    eps: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")

    @property
    def quartic(self) -> Quartic:
        return Quartic(self.material, self.temperature)

    def density(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        excess = np.maximum(np.einsum("...c,...c->...", c, c) - 1.0 / 6.0, 0.0)
        return self.quartic.density(c) + excess * excess / self.eps**2

    def gradient(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        tr2 = np.einsum("...c,...c->...", c, c)
        excess = np.maximum(tr2 - 1.0 / 6.0, 0.0)
        pen = (4.0 / self.eps**2) * excess
        return self.quartic.gradient(c) + pen[..., None] * c


def f_bulk(fun: BulkFunctional, q: QTensor) -> float:
    """Bulk energy density of a single tensor."""
    return float(fun.density(q.coeffs))


def bulk_gradient(fun: BulkFunctional, q: QTensor) -> QTensor:
    """Traceless-projected derivative of the bulk density at a single tensor."""
    return QTensor(fun.gradient(q.coeffs))


@dataclass(frozen=True)
class StationaryReport:
    """Stationary points of the quartic density along uniaxial states.

    Besides s = 0 there are s_plus and s_minus = (b +- sqrt(b^2 - 24 a c)) / 4c
    whenever b^2 - 24 a c >= 0; their densities follow f(s) = s^2 (9a - b s) / 54.
    The nematic branch is the global minimum exactly when f_at_plus < 0.
    """

    s_zero_value: float
    s_plus: Optional[float]
    s_minus: Optional[float]
    f_at_plus: Optional[float]
    f_at_minus: Optional[float]
    global_min_is_nematic: bool


class StationaryColumns(NamedTuple):
    """Uniaxial stationary points of the quartic density, one entry per temperature.

    ``nematic`` marks where s_plus and s_minus exist, b^2 - 24 a c >= 0; the
    four nematic columns hold NaN elsewhere.
    """

    t: np.ndarray
    a: np.ndarray
    nematic: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    global_min_is_nematic: np.ndarray


def _f_uniaxial_stationary(a, b: float, s):
    return s * s * (9.0 * a - b * s) / 54.0


def nematic_root(m: Material, a) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(b^2 - 24 a c) per entry of ``a`` and the mask where the radicand is not negative.

    The root is NaN where the radicand is negative. This mask is the one test
    for the nematic branch: the stationary points, the bulk and elastic
    triangles and the audits all use it. A NaN radicand (overflowing
    constants) does not count as negative.
    """
    disc = m.b * m.b - 24.0 * a * m.c
    nematic = np.logical_not(disc < 0.0)
    return np.sqrt(np.where(nematic, disc, np.nan)), nematic


def stationary_columns(m: Material, t) -> StationaryColumns:
    """Uniaxial stationary points of the quartic bulk density at each temperature of ``t``.

    Temperatures with a < -alpha*t_star (below the absolute-zero equivalent of
    the linear law) are rejected, naming the first one.
    """
    t = np.asarray(t)
    a = a_of_temperature(m, t)
    cold = np.flatnonzero(a < -m.alpha * m.t_star)
    if cold.size:
        raise RegimeError(
            f"temperature {t.flat[cold[0]].item()} lies below the absolute-zero "
            "equivalent of the linear law"
        )
    root, nematic = nematic_root(m, a)
    s_plus = (m.b + root) / (4.0 * m.c)
    s_minus = (m.b - root) / (4.0 * m.c)
    f_plus = _f_uniaxial_stationary(a, m.b, s_plus)
    f_minus = _f_uniaxial_stationary(a, m.b, s_minus)
    return StationaryColumns(t, a, nematic, s_plus, s_minus, f_plus, f_minus, f_plus < 0.0)


def stationary_scalars(m: Material, t: float) -> StationaryReport:
    """Uniaxial stationary points of the quartic bulk density at temperature t."""
    col = stationary_columns(m, t)
    if not col.nematic:
        return StationaryReport(0.0, None, None, None, None, False)
    return StationaryReport(
        s_zero_value=0.0,
        s_plus=float(col.s_plus),
        s_minus=float(col.s_minus),
        f_at_plus=float(col.f_plus),
        f_at_minus=float(col.f_minus),
        global_min_is_nematic=bool(col.global_min_is_nematic),
    )


@dataclass(frozen=True)
class CharacteristicTemperatures:
    """The temperatures separating the quartic phase regimes.

    t_star: the isotropic state loses stability (a = 0); t_ni: first-order
    nematic-isotropic transition (a = b^2/27c); t_superheat: the nematic
    stationary points disappear (a = b^2/24c); physical_window: temperatures
    where s_plus lies in [0, 1].
    """

    t_star: float
    t_ni: float
    t_superheat: float
    physical_window: tuple[float, float]


def characteristic_temperatures(m: Material) -> CharacteristicTemperatures:
    b2c = m.b * m.b / m.c
    return CharacteristicTemperatures(
        t_star=m.t_star,
        t_ni=m.t_star + b2c / (27.0 * m.alpha),
        t_superheat=m.t_star + b2c / (24.0 * m.alpha),
        physical_window=(
            m.t_star + (m.b - 2.0 * m.c) / (3.0 * m.alpha),
            m.t_star + b2c / (24.0 * m.alpha),
        ),
    )


def bulk_triangle_scale(m: Material, col: StationaryColumns) -> np.ndarray:
    """Scale of the bulk triangle at each temperature of the stationary columns.

    In the deeply ordered regime a < -b^2/3c the vertices scale with
    2|s_minus|, otherwise with s_plus; NaN where the nematic branch does not
    exist.
    """
    return np.where(col.a >= -m.b * m.b / (3.0 * m.c), col.s_plus, 2.0 * np.abs(col.s_minus))


def bulk_triangle(m: Material, t: float) -> list[tuple[float, float]]:
    """Vertices of the convex hull of the bulk stationary points in the (s, r) plane.

    Where the nematic branch does not exist (above superheating) the hull
    collapses to the origin; see ``bulk_triangle_scale`` for the scale and
    ``stationary_columns`` for the rejected temperatures.
    """
    col = stationary_columns(m, t)
    scale = float(bulk_triangle_scale(m, col))
    if not col.nematic:
        return [(0.0, 0.0)]
    return [(scale, 0.0), (0.0, scale), (-scale, -scale)]


def _degree_weighted_bound_poly(fun: Polynomial) -> np.ndarray:
    """Ascending coefficients of K(u)/u^2, where K is the radial minorant of Q : dF/dQ.

    Contracting the gradient with Q multiplies each monomial by its total
    degree; replacing tr Q^3 by its extremal value +-u^3/sqrt(6) at |Q| = u
    (with the sign that minimizes the term) yields a univariate polynomial K
    with K(u) <= Q : dF/dQ whenever |Q| = u. The largest nonnegative root of
    K bounds the norm at any interior maximum. Every monomial of K has
    degree >= 2, so the structural u^2 factor is divided out here; the roots
    of interest are unchanged and u = 0 stops masking the genuine ones.
    """
    n = fun.degree
    k = np.zeros(n - 1)
    k[0] += 2.0 * fun.a2
    for m, p, co in fun.terms:
        d = 2 * m + 3 * p
        if p == 0:
            k[d - 2] += d * co
        else:
            k[d - 2] -= d * abs(co) / 6.0 ** (p / 2.0)
    return k


def _bisect_root(poly: np.ndarray, lo: float, hi: float, tol: float) -> float:
    # sign convention: poly(lo) <= 0 < poly(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.polyval(poly[::-1], mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _largest_nonneg_root(poly: np.ndarray, tol: float = 1e-12) -> float:
    """Largest nonnegative real root of an ascending-coefficient polynomial.

    Brackets below the Cauchy bound with a dense descending scan and bisects.
    Even-multiplicity roots (no sign change) are recovered by bisecting the
    derivative to the stationary point and accepting it when the polynomial
    value there is negligible against the local scale.
    """
    coeffs = np.trim_zeros(np.asarray(poly, dtype=float), "b")
    if coeffs.size <= 1:
        return 0.0
    lead = coeffs[-1]
    if lead <= 0.0:
        raise ValueError("bound polynomial must have a positive leading coefficient")
    cauchy = 1.0 + np.max(np.abs(coeffs[:-1])) / lead
    grid = np.linspace(0.0, cauchy, 4096)
    vals = np.polyval(coeffs[::-1], grid)
    nonpos = np.nonzero(vals <= 0.0)[0]
    if nonpos.size:
        i = int(nonpos[-1])
        if i == grid.size - 1:  # cannot happen below the Cauchy bound
            raise AssertionError("polynomial nonpositive at its Cauchy bound")
        return _bisect_root(coeffs, grid[i], grid[i + 1], tol)
    # No sign change on the grid: look for a double root at an interior minimum.
    dpoly = coeffs[1:] * np.arange(1, coeffs.size)
    dvals = np.polyval(dpoly[::-1], grid)
    best = 0.0
    for i in range(grid.size - 1):
        if dvals[i] <= 0.0 < dvals[i + 1]:
            u = _bisect_root(dpoly, grid[i], grid[i + 1], tol)
            pu = float(np.polyval(coeffs[::-1], u))
            scale = float(np.polyval(np.abs(coeffs)[::-1], max(u, 1.0)))
            if pu <= 0.0:
                best = max(best, _bisect_root(coeffs, u, cauchy, tol))
            elif pu <= 1e-9 * scale:
                best = max(best, u)
    return best


def poly_bound_C(fun: Polynomial) -> float:
    """Norm bound for minimizers under the polynomial bulk density.

    Returns the largest nonnegative root of the radial minorant of Q : dF/dQ,
    or zero when the minorant is positive for all u > 0 (then the norm can
    only peak on the boundary). For quartic coefficients this equals the
    explicit low-temperature bound (b + sqrt(b^2 - 24 a c)) / (2 sqrt(6) c).
    """
    return _largest_nonneg_root(_degree_weighted_bound_poly(fun))


def gl_bound(m: Material, t: float, eps: float) -> float:
    """Field-independent norm bound for minimizers of the penalized functional.

    The caller combines this with the boundary-norm maximum. Tends to
    1/sqrt(6) as eps -> 0 and to the unpenalized low-temperature bound as
    eps -> infinity.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    a = a_of_temperature(m, t)
    den = SQRT6 * (8.0 + 2.0 * eps * eps * m.c)
    radicand = (
        64.0
        + 16.0 * eps * eps * (m.c - 6.0 * a)
        + eps**4 * (m.b * m.b - 24.0 * a * m.c)
    )
    if radicand < 0.0:
        raise RegimeError("penalized bound radicand is negative for these parameters")
    return max(1.0 / SQRT6, (m.b * eps * eps + np.sqrt(radicand)) / den)
