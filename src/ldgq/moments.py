"""Probabilistic second-moment oracle on the unit sphere.

Builds order tensors directly from orientation probability densities by
quadrature, independently of any free-energy machinery, so the eigenvalue
constraints of the second-moment definition can be checked against ground
truth: every normalized density yields eigenvalues in [-1/3, 2/3] exactly,
up to roundoff, regardless of quadrature resolution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError
from .qtensor import QTensor, matrices_to_coeffs

__all__ = [
    "SphericalQuadrature",
    "Distribution",
    "build_quadrature",
    "distribution_from_values",
    "uniform_distribution",
    "watson_distribution",
    "band_distribution",
    "q_from_psi",
    "load_density_csv",
]


@dataclass(frozen=True)
class SphericalQuadrature:
    """Quadrature nodes on the unit sphere with exact antipodal pairing.

    ``antipode`` maps each node index to the index of its exact negation;
    weights are positive and sum to the sphere area 4 pi. ``ring_cos`` holds
    the ascending polar cosines of the n rings: node i * 2n + j lies on ring i
    at azimuth 2 pi j / 2n.
    """

    nodes: np.ndarray
    weights: np.ndarray
    antipode: np.ndarray
    ring_cos: np.ndarray

    def __post_init__(self):
        for arr in (self.nodes, self.weights, self.antipode, self.ring_cos):
            arr.setflags(write=False)


def build_quadrature(level: int) -> SphericalQuadrature:
    """Gauss-Legendre (polar) x uniform (azimuthal) product grid.

    ``level`` >= 1 selects level+1 polar nodes and 2*(level+1) azimuthal
    nodes, exact for spherical polynomials up to degree 2*level + 1. The
    second azimuthal half is constructed as the exact negation of the first,
    so antipodal symmetry holds bitwise.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    n_pol = level + 1
    n_azi = 2 * (level + 1)
    x, w = np.polynomial.legendre.leggauss(n_pol)
    x = 0.5 * (x - x[::-1])  # enforce exact +- symmetry of the polar nodes
    w = 0.5 * (w + w[::-1])
    phi = 2.0 * np.pi * np.arange(n_azi // 2) / n_azi
    sin_pol = np.sqrt(np.maximum(1.0 - x * x, 0.0))

    nodes = np.empty((n_pol, n_azi, 3))
    half = n_azi // 2
    nodes[:, :half, 0] = np.outer(sin_pol, np.cos(phi))
    nodes[:, :half, 1] = np.outer(sin_pol, np.sin(phi))
    nodes[:, :half, 2] = x[:, None]
    nodes[:, half:] = -nodes[::-1, :half]

    weights = np.broadcast_to(w[:, None] * (2.0 * np.pi / n_azi), (n_pol, n_azi)).copy()

    idx = np.arange(n_pol * n_azi).reshape(n_pol, n_azi)
    antipode = np.empty(n_pol * n_azi, dtype=int)
    antipode[idx[:, :half].ravel()] = idx[::-1, half:].ravel()
    antipode[idx[:, half:].ravel()] = idx[::-1, :half].ravel()

    return SphericalQuadrature(
        nodes=nodes.reshape(-1, 3),
        weights=weights.reshape(-1),
        antipode=antipode,
        ring_cos=x,
    )


@dataclass(frozen=True)
class Distribution:
    """Nonnegative, antipodally symmetric density values at quadrature nodes."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def distribution_from_values(quad: SphericalQuadrature, raw) -> Distribution:
    """Symmetrize and normalize raw nonnegative nodal values into a density.

    Antipodal symmetrization (averaging each node with its antipode) is
    applied automatically; negative inputs and identically zero inputs are
    rejected.
    """
    v = np.asarray(raw, dtype=float).copy()
    if v.shape != quad.weights.shape:
        raise NormalizationError(
            f"density has {v.size} values, quadrature has {quad.weights.size} nodes"
        )
    if not np.all(np.isfinite(v)):
        raise NormalizationError("density values must be finite")
    if (v < 0.0).any():
        raise NormalizationError("density values must be nonnegative")
    v = 0.5 * (v + v[quad.antipode])
    total = float(quad.weights @ v)
    if total <= 0.0:
        raise NormalizationError("density integrates to zero")
    return Distribution(values=v / total)


def uniform_distribution(quad: SphericalQuadrature) -> Distribution:
    return distribution_from_values(quad, np.ones_like(quad.weights))


def watson_distribution(quad: SphericalQuadrature, axis, kappa: float) -> Distribution:
    """Axially symmetric density proportional to exp(kappa (p . axis)^2).

    Antipodally symmetric by construction; kappa -> infinity concentrates on
    the +-axis pair, kappa = 0 is uniform.
    """
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    t = (quad.nodes @ axis) ** 2
    return distribution_from_values(quad, np.exp(kappa * (t - 1.0)))


def band_distribution(quad: SphericalQuadrature, axis, half_width: float) -> Distribution:
    """Uniform density on the band |p . axis| <= half_width around the equator."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    inside = np.abs(quad.nodes @ axis) <= half_width
    if not inside.any():
        raise NormalizationError("band contains no quadrature nodes; increase level or width")
    return distribution_from_values(quad, inside.astype(float))


def q_from_psi(psi: Distribution, quad: SphericalQuadrature) -> QTensor:
    """Normalized second moment of the density: sum of w psi (p x p - I/3).

    The result is projected into the coefficient basis, so tracelessness is
    exact. Rejects densities whose quadrature integral is not 1 to 1e-8.
    """
    total = float(quad.weights @ psi.values)
    if abs(total - 1.0) > 1e-8:
        raise NormalizationError(f"density integrates to {total}, expected 1")
    wpsi = quad.weights * psi.values
    second = np.einsum("n,ni,nj->ij", wpsi, quad.nodes, quad.nodes)
    return QTensor(matrices_to_coeffs(second - np.eye(3) / 3.0 * total))


def load_density_csv(path, quad: SphericalQuadrature) -> Distribution:
    """Read (theta, phi, value) samples in radians and assign to nearest nodes.

    Multiple samples landing on one node are averaged; nodes without samples
    get zero. A leading byte-order mark, blank lines, comment lines starting
    with '#', and a header line of column names are skipped. Negative values,
    and angles and values that are not finite, are rejected.

    Line 1 is skipped when ``_is_header`` says it is a header; the other
    lines, stripped and without the blank and '#' ones, are parsed in one
    ``np.loadtxt`` call. Only a file that parse rejects, or that holds a
    negative value or a non-finite number, goes through the per-line reader,
    which accepts or rejects it and names the offending line.
    """
    with open(path, encoding="utf-8-sig") as fh:
        if not _is_header(fh.readline().strip()):
            fh.seek(0)
        # np.loadtxt rejects whitespace-only lines, so it gets the lines stripped
        lines = (text for text in map(str.strip, fh) if text and not text.startswith("#"))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. no rows: let the line reader judge
                rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            rows = None
        if (rows is None or rows.shape[1] != 3 or (rows[:, 2] < 0.0).any()
                or not np.isfinite(rows).all()):
            fh.seek(0)
            rows = _read_sample_lines(path, fh)
    if not len(rows):
        raise NormalizationError(f"{path}: no density samples found")
    theta, phi, value = rows.T
    sin_theta = np.sin(theta)
    points = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta)], axis=1)
    nearest = _nearest_nodes(points, quad)
    n = len(quad.weights)
    sums = np.bincount(nearest, weights=value, minlength=n)  # adds in file order
    counts = np.bincount(nearest, minlength=n)
    values = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    return distribution_from_values(quad, values)


def _is_header(text: str) -> bool:
    """Line 1, stripped, is a header when it has three fields and one is not a number."""
    parts = text.split(",")
    if len(parts) != 3:
        return False
    try:
        for part in parts:
            float(part)
    except ValueError:
        return True
    return False


def _read_sample_lines(path, fh) -> np.ndarray:
    """Line-by-line reader of the samples as an (n, 3) array."""
    rows = []
    for lineno, line in enumerate(fh, start=1):
        text = line.strip()
        if not text or text.startswith("#") or (lineno == 1 and _is_header(text)):
            continue
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise NormalizationError(
                f"{path}: line {lineno}: expected 'theta,phi,value'"
            )
        try:
            theta, phi, value = (float(p) for p in parts)
        except ValueError:
            raise NormalizationError(
                f"{path}: line {lineno}: non-numeric row"
            ) from None
        if value < 0.0:
            raise NormalizationError(f"{path}: line {lineno}: negative density")
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise NormalizationError(f"{path}: line {lineno}: non-finite angle")
        if not math.isfinite(value):
            raise NormalizationError(f"{path}: line {lineno}: non-finite value")
        rows.append((theta, phi, value))
    return np.array(rows, dtype=float).reshape(-1, 3)


# Bound on the rounding gap between two evaluations of one dot product of unit
# vectors; a second node within it of the best makes the ranking order-sensitive.
_TIE_GAP = 1e-12


def _nearest_nodes(points: np.ndarray, quad: SphericalQuadrature) -> np.ndarray:
    """Per point, the node index that ``np.argmax(quad.nodes @ p)`` gives.

    The nodes lie on rings of constant cos(theta), all with the same n_azi
    azimuths. On every ring p . node peaks at the azimuth nearest p's. Along
    it p . node = R cos(theta_ring - alpha) peaks at the ring nearest alpha, the
    polar angle of (p . azimuth, p_z), which is within (1 - cos(pi / n_azi)) / 2
    of p's own, less than half a ring spacing. So the best node is one of the
    2 x 2 around p. A point whose runner-up among them is within ``_TIE_GAP``
    of its best is ranked again with ``quad.nodes @ p``, whose rounding decides
    such ties. No node outside the four comes nearer the best than that
    runner-up: the other azimuth is the second nearest on its ring, and other
    rings trail by R (1 - cos(ring spacing)) or more.
    """
    ring_cos = quad.ring_cos
    ring_sin = np.sqrt(np.maximum(1.0 - ring_cos * ring_cos, 0.0))
    n_azi = 2 * len(ring_cos)
    step = 2.0 * np.pi / n_azi
    # azimuth tables over k = -n_azi / 2 - 1 .. n_azi / 2 + 1, shifted to start at 0
    k = np.arange(-n_azi // 2 - 1, n_azi // 2 + 2)
    cos_azi, sin_azi, azi_index = np.cos(step * k), np.sin(step * k), k % n_azi
    px, py, pz = points.T.copy()
    u = np.arctan2(py, px) * (1.0 / step) + (n_azi // 2 + 1)
    near = np.rint(u)
    other = (near + np.copysign(1.0, u - near)).astype(np.intp)
    near = near.astype(np.intp)
    c = px * cos_azi[near] + py * sin_azi[near]  # rho cos(azimuth gap)
    c_other = px * cos_azi[other] + py * sin_azi[other]
    upper = np.searchsorted(ring_cos, pz).clip(1, len(ring_cos) - 1)
    s_lo, s_hi = ring_sin[upper - 1], ring_sin[upper]
    e_lo = s_lo * c + pz * ring_cos[upper - 1]
    e_hi = s_hi * c + pz * ring_cos[upper]
    up = e_hi > e_lo
    gap = np.minimum(np.abs(e_hi - e_lo), np.where(up, s_hi, s_lo) * (c - c_other))
    nearest = (upper - 1 + up) * n_azi + azi_index[near]
    for r in np.flatnonzero(gap <= _TIE_GAP):
        nearest[r] = np.argmax(quad.nodes @ points[r].copy())
    return nearest
