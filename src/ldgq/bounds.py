"""Triangle geometry in the (s, r) plane and norm-bound audits of computed fields.

The triangles that matter here are all similar isosceles triangles centered
at the origin with vertices (eta, 0), (0, eta), (-eta, -eta), so containment
between any two of them reduces to comparing their scale parameters; the
physical triangle is the eta = 1 member of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, TYPE_CHECKING

import numpy as np

from .bulk import (
    SQRT6,
    GLPenalized,
    Material,
    Polynomial,
    Quartic,
    a_of_temperature,
    bulk_triangle_scale,
    characteristic_temperatures,
    gl_bound,
    nematic_root,
    poly_bound_C,
    stationary_columns,
)
from .errors import RegimeError

if TYPE_CHECKING:
    from .solver import QField

__all__ = [
    "TriangleReport",
    "TriangleColumns",
    "BoundAudit",
    "triangle_scale",
    "elastic_bound_gamma",
    "triangle_columns",
    "triangle_report",
    "norm_bound",
    "audit_field",
]


def triangle_scale(s: float, r: float) -> float:
    """Smallest eta such that (s, r) lies in the triangle of scale eta."""
    return max(s + r, r - 2.0 * s, s - 2.0 * r)


def _gamma(m: Material, a) -> tuple[np.ndarray, np.ndarray]:
    """Gamma per entry of ``a``, NaN outside the nematic regime, and the regime mask."""
    root, nematic = nematic_root(m, a)
    return (m.b + root) / (2.0 * SQRT6 * m.c), nematic


def elastic_bound_gamma(m: Material, t: float) -> float:
    """Norm bound (b + sqrt(b^2 - 24 a c)) / (2 sqrt(6) c) for global minimizers.

    Valid in the regime b^2 - 24 a c >= 0 where the nematic stationary points
    exist; equals sqrt(2/3) * s_plus. Outside the regime the boundary-maximum
    audit applies instead and a RegimeError is raised.
    """
    gamma, nematic = _gamma(m, a_of_temperature(m, t))
    if not nematic:
        raise RegimeError(
            "norm bound undefined for a > b^2/24c; use the high-temperature audit"
        )
    return float(gamma)


@dataclass(frozen=True)
class TriangleReport:
    """Bulk and elastic triangles at one temperature with their containments.

    ``gamma`` and ``elastic_vertices`` are None above the superheating
    temperature, where the elastic triangle degenerates with the bulk one;
    a degenerate elastic triangle counts as contained in the physical one.
    ``crossing_temps`` holds (lower, upper): below the lower temperature the
    elastic predictions cover points outside the physical triangle, at and
    above the upper one the elastic triangle fits inside it.
    """

    temperature: float
    bulk_vertices: tuple[tuple[float, float], ...]
    elastic_vertices: Optional[tuple[tuple[float, float], ...]]
    gamma: Optional[float]
    t_psi_contains_elastic: bool
    elastic_contains_t_psi: bool
    crossing_temps: tuple[float, float]


class TriangleColumns(NamedTuple):
    """The triangle reports of a temperature sweep, one entry per temperature.

    ``bulk_scale``, ``gamma`` and ``elastic_scale`` (sqrt(6) gamma) are NaN
    where ``nematic`` is False; there the bulk triangle is the origin alone.
    ``crossing_temps`` is the same for every temperature.
    """

    t: np.ndarray
    nematic: np.ndarray
    bulk_scale: np.ndarray
    gamma: np.ndarray
    elastic_scale: np.ndarray
    t_psi_contains_elastic: np.ndarray
    elastic_contains_t_psi: np.ndarray
    crossing_temps: tuple[float, float]


def _triangle_vertices(eta: float) -> tuple[tuple[float, float], ...]:
    return ((eta, 0.0), (0.0, eta), (-eta, -eta))


def triangle_columns(m: Material, t) -> TriangleColumns:
    """Compare the elastic triangle against the physical one at each temperature of ``t``.

    Raises RegimeError naming the first temperature that ``stationary_columns``
    rejects.
    """
    col = stationary_columns(m, t)
    bulk_scale = bulk_triangle_scale(m, col)
    gamma, nematic = _gamma(m, col.a)
    elastic_scale = SQRT6 * gamma
    return TriangleColumns(
        t=col.t,
        nematic=nematic,
        bulk_scale=bulk_scale,
        gamma=gamma,
        elastic_scale=elastic_scale,
        # a degenerate elastic triangle lies inside the physical one
        t_psi_contains_elastic=~nematic | (elastic_scale <= 1.0),
        elastic_contains_t_psi=nematic & (np.sqrt(1.5) * gamma >= 1.0),
        crossing_temps=(
            characteristic_temperatures(m).physical_window[0],
            m.t_star + (m.b - m.c) / (6.0 * m.alpha),
        ),
    )


def triangle_report(m: Material, t: float) -> TriangleReport:
    """Compare the elastic triangle against the physical one at temperature t."""
    col = triangle_columns(m, t)
    if col.nematic:
        bulk_vertices = _triangle_vertices(float(col.bulk_scale))
        gamma = float(col.gamma)
        elastic_vertices = _triangle_vertices(float(col.elastic_scale))
    else:
        bulk_vertices = ((0.0, 0.0),)
        gamma = None
        elastic_vertices = None
    return TriangleReport(
        temperature=t,
        bulk_vertices=bulk_vertices,
        elastic_vertices=elastic_vertices,
        gamma=gamma,
        t_psi_contains_elastic=bool(col.t_psi_contains_elastic),
        elastic_contains_t_psi=bool(col.elastic_contains_t_psi),
        crossing_temps=col.crossing_temps,
    )


# Multiplicative slack of the audit's verdict, to absorb discretization error.
AUDIT_SLACK = 1e-3


@dataclass(frozen=True)
class BoundAudit:
    """Outcome of checking a field's interior norms against the regime bound.

    ``satisfied`` allows the interior norms the multiplicative ``slack``
    (``AUDIT_SLACK``) over the bound; ``hypothesis_met`` records whether the
    boundary datum satisfies the hypothesis of the corresponding statement
    (fields violating it are still audited, and an unsatisfied audit then
    signals hypothesis-not-met rather than a genuine violation).
    """

    regime: str
    bound_value: float
    max_interior_norm: float
    max_boundary_norm: float
    satisfied: bool
    worst_site: tuple[int, int, int]
    slack: float
    hypothesis_met: bool


def norm_bound(fun, max_boundary: float) -> tuple[str, float, bool]:
    """(regime, bound, hypothesis_met) of the functional ``fun`` for a boundary norm maximum.

    Quartic functionals split into the low-temperature regime (bound is the
    explicit gamma) and the high-temperature one (interior norms must not
    exceed the boundary maximum); polynomial and penalized functionals use
    their closed-form bounds combined with the boundary maximum. The material
    and temperature are the functional's own.
    """
    inv_sqrt6 = 1.0 / SQRT6
    if isinstance(fun, GLPenalized):  # ahead of Quartic: a GL functional is a Quartic
        bound = gl_bound(fun.material, fun.temperature, fun.eps)
        return "GL", max(bound, max_boundary), max_boundary < inv_sqrt6
    if isinstance(fun, Polynomial):
        return "Polynomial", max(poly_bound_C(fun), max_boundary), max_boundary < inv_sqrt6
    if isinstance(fun, Quartic):
        gamma, nematic = _gamma(fun.material, fun.a)
        if nematic:
            return "LowTemp", float(gamma), max_boundary < min(0.5 * gamma, inv_sqrt6)
        return "HighTemp", max_boundary, max_boundary < inv_sqrt6
    raise TypeError(f"unsupported functional {type(fun).__name__}")


def audit_field(field: "QField", fun) -> BoundAudit:
    """Audit a field against the norm bound (``norm_bound``) of its functional's regime."""
    norms = field.norms()
    interior = norms[1:-1, 1:-1, 1:-1]  # C order, as the full array: ties pick the same node
    flat = int(np.argmax(interior))
    worst_site = tuple(int(i) + 1 for i in np.unravel_index(flat, interior.shape))
    max_interior = float(norms[worst_site])
    max_boundary = float(norms[field.boundary_mask].max())
    regime, bound, hypothesis = norm_bound(fun, max_boundary)
    return BoundAudit(
        regime=regime,
        bound_value=float(bound),
        max_interior_norm=max_interior,
        max_boundary_norm=max_boundary,
        satisfied=bool(max_interior <= bound * (1.0 + AUDIT_SLACK)),
        worst_site=worst_site,
        slack=AUDIT_SLACK,
        hypothesis_met=bool(hypothesis),
    )
