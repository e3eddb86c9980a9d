"""Algebra on symmetric traceless 3x3 order tensors.

A tensor Q is stored as five coordinates in a fixed orthonormal basis of the
space of symmetric traceless matrices. Symmetry and tracelessness then hold
by construction, and |Q|^2 is a plain sum of squared coefficients, which
keeps both linear constraints exact during gradient flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameError

__all__ = [
    "BASIS",
    "QTensor",
    "EigenSystem",
    "OrderParams",
    "coeffs_to_matrices",
    "matrices_to_coeffs",
    "square_coeffs",
    "trace_invariants",
    "eigenvalues_desc",
    "rotate_coeffs",
    "uniaxial_coeffs",
    "make_biaxial",
    "eigensystem",
    "order_params",
    "biaxiality",
    "in_physical_triangle",
    "norm_and_region",
]

LAMBDA_MIN = -1.0 / 3.0
LAMBDA_MAX = 2.0 / 3.0


def _build_basis() -> np.ndarray:
    x, y, z = np.eye(3)
    basis = np.empty((5, 3, 3))
    basis[0] = np.sqrt(1.5) * (np.outer(z, z) - np.eye(3) / 3.0)
    basis[1] = np.sqrt(0.5) * (np.outer(x, x) - np.outer(y, y))
    basis[2] = np.sqrt(0.5) * (np.outer(x, y) + np.outer(y, x))
    basis[3] = np.sqrt(0.5) * (np.outer(x, z) + np.outer(z, x))
    basis[4] = np.sqrt(0.5) * (np.outer(y, z) + np.outer(z, y))
    basis.setflags(write=False)
    return basis


#: Orthonormal basis of symmetric traceless 3x3 matrices under the Frobenius inner product.
BASIS = _build_basis()


def coeffs_to_matrices(coeffs) -> np.ndarray:
    """Map coefficient vectors of shape (..., 5) to matrices of shape (..., 3, 3)."""
    return np.einsum("...c,cij->...ij", np.asarray(coeffs, dtype=float), BASIS)


def matrices_to_coeffs(mats) -> np.ndarray:
    """Project matrices of shape (..., 3, 3) onto the basis, returning (..., 5).

    General input is projected onto its symmetric traceless part, so a tensor
    rebuilt from the result is traceless regardless of roundoff in the input.
    """
    return np.einsum("...ij,cij->...c", np.asarray(mats, dtype=float), BASIS)


def square_coeffs(coeffs, axis: int = -1) -> np.ndarray:
    """Basis coefficients of Q^2 (its traceless part), with the five coefficients along ``axis``.

    Component k is sum_ab c_a c_b tr(B_a B_b B_k), written out in 16 monomials.
    """
    r6, r2 = 1.0 / np.sqrt(6.0), 1.0 / np.sqrt(2.0)
    c = np.moveaxis(np.asarray(coeffs, dtype=float), axis, 0)
    c0, c1, c2, c3, c4 = c
    out = np.empty_like(c)  # in the memory layout of c
    out[0] = r6 * (c0 * c0 - c1 * c1 - c2 * c2 + 0.5 * (c3 * c3 + c4 * c4))
    out[1] = (0.5 * r2) * (c3 * c3 - c4 * c4) - (2.0 * r6) * c0 * c1
    out[2] = r2 * c3 * c4 - (2.0 * r6) * c0 * c2
    out[3] = r6 * c0 * c3 + r2 * (c1 * c3 + c2 * c4)
    out[4] = r6 * c0 * c4 + r2 * (c2 * c3 - c1 * c4)
    return np.moveaxis(out, 0, axis)


def trace_invariants(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Return (tr Q^2, tr Q^3) = (c.c, c.square_coeffs(c)) for coefficients of shape (..., 5)."""
    c = np.asarray(coeffs, dtype=float)
    return np.einsum("...c,...c->...", c, c), np.einsum("...c,...c->...", c, square_coeffs(c))


def eigenvalues_desc(coeffs) -> np.ndarray:
    """Eigenvalues of the reconstructed tensors, sorted descending; shape (..., 3)."""
    return np.linalg.eigvalsh(coeffs_to_matrices(coeffs))[..., ::-1]


def rotate_coeffs(coeffs, rot) -> np.ndarray:
    """Conjugate coefficient vectors by a rotation matrix: Q -> R Q R^T."""
    rot = np.asarray(rot, dtype=float)
    mats = coeffs_to_matrices(coeffs)
    return matrices_to_coeffs(np.einsum("ip,...pq,jq->...ij", rot, mats, rot))


def unit_frame(*axes) -> list[np.ndarray]:
    """A director, or a pair e1, e2, as 3-vectors; FrameError unless orthonormal to 1e-12."""
    vecs = [np.asarray(a, dtype=float) for a in axes]
    if len(vecs) not in (1, 2):
        raise FrameError(f"a frame is one director or a pair e1, e2, not {len(vecs)} vectors")
    if not all(v.shape == (3,) and abs(v @ v - 1.0) <= 1e-12 for v in vecs):
        raise FrameError("director must be a unit vector" if len(vecs) == 1
                         else "e1 and e2 must be unit vectors")
    if len(vecs) == 2 and not abs(vecs[0] @ vecs[1]) <= 1e-12:
        raise FrameError("e1 and e2 must be orthogonal")
    return vecs


def uniaxial_coeffs(s, director) -> np.ndarray:
    """Coefficients of s * (n x n - I/3) for scalar or array-valued s."""
    (n,) = unit_frame(director)
    base = matrices_to_coeffs(np.outer(n, n) - np.eye(3) / 3.0)
    return np.asarray(s, dtype=float)[..., None] * base


@dataclass(frozen=True)
class QTensor:
    """Symmetric traceless order tensor held as five orthonormal-basis coefficients."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float).reshape(5)
        if not np.all(np.isfinite(c)):
            raise ValueError("QTensor coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls) -> "QTensor":
        return cls(np.zeros(5))

    @classmethod
    def from_matrix(cls, mat) -> "QTensor":
        return cls(matrices_to_coeffs(mat))

    @property
    def matrix(self) -> np.ndarray:
        return coeffs_to_matrices(self.coeffs)

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.coeffs @ self.coeffs))


@dataclass(frozen=True)
class EigenSystem:
    """Descending eigenvalues and the matching orthonormal eigenvectors (as rows)."""

    lambdas: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class OrderParams:
    """Canonical scalar order parameters s = l1 - l3, r = l2 - l3 (so 0 <= r <= s)."""

    s: float
    r: float


def make_biaxial(s: float, r: float, e1, e2) -> QTensor:
    """Build s*(e1 x e1 - I/3) + r*(e2 x e2 - I/3) from an orthonormal pair.

    r = 0 gives the uniaxial tensor with director e1. Raises FrameError when
    e1, e2 are not unit length and mutually orthogonal to within 1e-12.
    """
    e1, e2 = unit_frame(e1, e2)
    eye3 = np.eye(3) / 3.0
    mat = s * (np.outer(e1, e1) - eye3) + r * (np.outer(e2, e2) - eye3)
    return QTensor.from_matrix(mat)


def eigensystem(q: QTensor) -> EigenSystem:
    """Full eigendecomposition, eigenvalues sorted descending.

    Degenerate eigenvalues receive an arbitrary orthonormal completion of the
    eigenspace; a fixed sign convention (largest-magnitude component positive)
    keeps the output deterministic for identical inputs.
    """
    lam, vec = np.linalg.eigh(q.matrix)
    lam = lam[::-1].copy()
    rows = vec[:, ::-1].T.copy()
    for i in range(3):
        j = int(np.argmax(np.abs(rows[i])))
        if rows[i, j] < 0.0:
            rows[i] = -rows[i]
    lam.setflags(write=False)
    rows.setflags(write=False)
    return EigenSystem(lambdas=lam, vectors=rows)


def order_params(q: QTensor) -> OrderParams:
    """Canonical (s, r) from descending eigenvalues; always lands in 0 <= r <= s."""
    lam = eigenvalues_desc(q.coeffs)
    s = max(float(lam[0] - lam[2]), 0.0)
    r = max(float(lam[1] - lam[2]), 0.0)
    return OrderParams(s=s, r=r)


def biaxiality(q: QTensor) -> float:
    """Biaxiality parameter 1 - 6 (tr Q^3)^2 / (tr Q^2)^3.

    The exact value lies in [0, 1]: it vanishes for uniaxial tensors and
    equals one when the eigenvalues are (l, 0, -l). Floating-point roundoff
    may exceed the endpoints by a few ulps near them. Undefined at Q = 0. Taken on Q/|Q|,
    as it is scale-free, so that no power of tr Q^2 underflows or overflows.
    """
    norm = math.hypot(*q.coeffs)
    if norm == 0.0:
        raise ValueError("biaxiality is undefined at Q = 0")
    tr2, tr3 = trace_invariants(q.coeffs / norm)
    return float(1.0 - 6.0 * tr3 * tr3 / tr2**3)


def in_physical_triangle(q: QTensor, tol: float = 0.0) -> bool:
    """True when every eigenvalue lies in [-1/3 - tol, 2/3 + tol].

    This is the eigenvalue form of membership of (s, r) in the physical
    triangle, up to the six-fold eigenvalue-relabeling symmetry.
    """
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    lam = eigenvalues_desc(q.coeffs)
    return bool(lam[0] <= LAMBDA_MAX + tol and lam[2] >= LAMBDA_MIN - tol)


def norm_and_region(s: float, r: float) -> tuple[float, str]:
    """Return |Q|^2 = (2/3)(s^2 + r^2 - s r) and the (s, r)-plane region label.

    Regions: R1 = {s, r >= 0}, R2 = {s <= 0, r >= s}, R3 = {r <= 0, r <= s};
    boundary points go to the lowest-index matching region. Labels are only
    meaningful for externally labeled (s, r) pairs, since sorting eigenvalues
    always produces a pair in R1. Raises ValueError for a non-finite s or r.
    """
    if not (np.isfinite(s) and np.isfinite(r)):
        raise ValueError(f"s and r must be finite, got ({s}, {r})")
    norm2 = (2.0 / 3.0) * (s * s + r * r - s * r)
    if s >= 0.0 and r >= 0.0:
        region = "R1"
    elif s <= 0.0 and r >= s:
        region = "R2"
    else:  # outside R1 and R2 a finite pair has r < 0 and r < s
        region = "R3"
    return norm2, region
