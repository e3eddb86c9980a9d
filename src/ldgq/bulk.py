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
from typing import NamedTuple

import numpy as np

from .errors import RegimeError
from .qtensor import square_coeffs

__all__ = [
    "Material",
    "BulkFunctional",
    "Quartic",
    "Polynomial",
    "GLPenalized",
    "StationaryColumns",
    "CharacteristicTemperatures",
    "a_of_temperature",
    "linear_law_a",
    "nematic_root",
    "stationary_columns",
    "characteristic_temperatures",
    "bulk_triangle_scale",
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


def linear_law_a(m: Material, t):
    """a = alpha (T - T*) at each temperature of ``t``, none of them below the law's floor.

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
    return a


def _power(x, k: int):  # x**k, without an array operation for k = 0 and 1
    return 1.0 if k == 0 else x if k == 1 else x**k


class BulkFunctional:
    """Density a2 tr Q^2 + sum of co (tr Q^2)^m (tr Q^3)^p over the ``terms`` (m, p, co).

    Subclasses supply ``a2`` and ``terms``; ``GLPenalized`` adds its penalty to the quartic's.
    ``density`` and ``gradient`` take (..., 5) views of the one kernel on arrays (5, ...).
    """

    def density_and_gradient(self, q, square=None) -> tuple[np.ndarray, np.ndarray]:
        """Density, shape (...), and its gradient, shape (5, ...), for coefficients (5, ...).

        The gradient is exact (to roundoff), from d tr Q^2 = 2 c and d tr Q^3 = 3 Q^2; the
        basis spans only traceless matrices, so the trace constraint never enters.
        ``square`` replaces ``square_coeffs`` (the traceless part of Q^2) when given: on the
        coordinates of Q in a director's line or a frame's plane, ``solver._frame_square``
        makes this the exact kernel of those k coordinates, with q of shape (k, ...).
        """
        sq = square_coeffs(q, axis=0) if square is None else square(q)
        tr2 = np.einsum("c...,c...->...", q, q)
        tr3 = np.einsum("c...,c...->...", q, sq)
        dens = self.a2 * tr2
        grad = 2.0 * self.a2 * q
        for m, p, co in self.terms:
            dens += co * _power(tr2, m) * _power(tr3, p)
            if m:
                grad += (2.0 * m * co) * (_power(tr2, m - 1) * _power(tr3, p)) * q
            if p:
                grad += (3.0 * p * co) * (_power(tr2, m) * _power(tr3, p - 1)) * sq
        return dens, grad

    def density(self, coeffs) -> np.ndarray:
        """Bulk energy density for coefficient arrays of shape (..., 5)."""
        return self.density_and_gradient(np.moveaxis(np.asarray(coeffs, dtype=float), -1, 0))[0]

    def gradient(self, coeffs) -> np.ndarray:
        """Traceless-projected derivative of the density, shape (..., 5)."""
        q = np.moveaxis(np.asarray(coeffs, dtype=float), -1, 0)
        return np.moveaxis(self.density_and_gradient(q)[1], 0, -1)


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
class GLPenalized(Quartic):
    """The quartic density of ``material`` at ``temperature`` plus a penalty for |Q| > 1/sqrt(6).

    The penalty (|Q|^2 - 1/6)^2 / eps^2 is C1 but not C2 at the threshold;
    gradient flow only needs C1, so no smoothing is applied.
    """

    eps: float

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")

    def density_and_gradient(self, q, square=None):
        dens, grad = super().density_and_gradient(q, square)
        excess = np.maximum(np.einsum("c...,c...->...", q, q) - 1.0 / 6.0, 0.0)
        return dens + excess * excess / self.eps**2, grad + ((4.0 / self.eps**2) * excess) * q


class StationaryColumns(NamedTuple):
    """Uniaxial stationary points of the quartic density, one entry per temperature.

    Besides s = 0 there are s_plus and s_minus = (b +- sqrt(b^2 - 24 a c)) / 4c
    where ``nematic`` marks b^2 - 24 a c >= 0; their densities f_plus and f_minus
    follow f(s) = s^2 (9a - b s) / 54. The four nematic columns hold NaN elsewhere.
    The nematic branch is the global minimum exactly when f_plus < 0.
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

    Temperatures below the linear law's floor are rejected (``linear_law_a``).
    """
    t = np.asarray(t)
    a = linear_law_a(m, t)
    root, nematic = nematic_root(m, a)
    s_plus = (m.b + root) / (4.0 * m.c)
    s_minus = (m.b - root) / (4.0 * m.c)
    f_plus = _f_uniaxial_stationary(a, m.b, s_plus)
    f_minus = _f_uniaxial_stationary(a, m.b, s_minus)
    return StationaryColumns(t, a, nematic, s_plus, s_minus, f_plus, f_minus, f_plus < 0.0)


# alias that the frozen tracer in perfbench/tracing.py wraps, until ROADMAP item 1
stationary_scalars = stationary_columns


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
    t_superheat = m.t_star + b2c / (24.0 * m.alpha)
    return CharacteristicTemperatures(
        t_star=m.t_star,
        t_ni=m.t_star + b2c / (27.0 * m.alpha),
        t_superheat=t_superheat,
        physical_window=(m.t_star + (m.b - 2.0 * m.c) / (3.0 * m.alpha), t_superheat),
    )


def bulk_triangle_scale(m: Material, col: StationaryColumns) -> np.ndarray:
    """Scale of the bulk triangle at each temperature of the stationary columns.

    In the deeply ordered regime a < -b^2/3c the vertices scale with
    2|s_minus|, otherwise with s_plus; NaN where the nematic branch does not
    exist.
    """
    return np.where(col.a >= -m.b * m.b / (3.0 * m.c), col.s_plus, 2.0 * np.abs(col.s_minus))


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


def _largest_nonneg_root(poly: np.ndarray) -> float:
    """Largest nonnegative real root of p(u) = sum of poly[i] u^i, or 0.0 if it has none.

    The candidates are the nonnegative real parts of the companion-matrix
    eigenvalues (``np.roots``). One is kept where the polynomial is negligible
    against its local scale, |p(u)| <= 1e-9 * sum |poly[i]| max(u, 1)^i, so a double
    root, which the eigenvalues split into a complex pair, still counts.
    """
    desc = poly[::-1]
    u = np.roots(desc).real
    u = u[u >= 0.0]
    scale = np.polyval(np.abs(desc), np.maximum(u, 1.0))
    kept = u[np.abs(np.polyval(desc, u)) <= 1e-9 * scale]
    return float(kept.max()) if kept.size else 0.0


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
    eps -> infinity. It is 1/sqrt(6) wherever the penalized minorant has no
    root above it, so it is defined at every temperature.
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
    if radicand < 0.0:  # the penalized minorant has no root above 1/sqrt(6)
        return 1.0 / SQRT6
    return max(1.0 / SQRT6, (m.b * eps * eps + np.sqrt(radicand)) / den)
