"""Seeded inputs for the benchmark workloads.

Everything the program receives is generated here from the workload seed:
config files, the stored field read by ``verify`` and the density CSV read by
``moments``. The same seed gives byte-identical files. Only numpy and the
standard library are used, so the inputs do not depend on the code under test.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# MBBA bulk constants in kJ/m^3 with a unit elastic constant.
ALPHA, B, C, T_STAR, ELASTIC_L = 0.42, 6.4, 3.5, 45.0, 1.0
RELAX_N = {"relax-33": 33, "relax-fine": 17}  # grid points per axis
T_LOW = 44.0  # below T*: the low-temperature regime, where Gamma bounds |Q|
TOL = 1e-7
SWEEP = (30.0, 47.0, 0.001)  # 17001 temperatures
SWEEP_ROWS = 17001
VERIFY_N = 65
WATSON_KAPPA = 8.0
MOMENT_SAMPLES = 100_000
MOMENT_LEVEL = 16

_MATERIAL = (
    "[material]\n"
    f"alpha = {ALPHA!r}\nb = {B!r}\nc = {C!r}\nt_star = {T_STAR!r}\nelastic_l = {ELASTIC_L!r}\n"
)

# Orthonormal basis of symmetric traceless 3x3 matrices, in the order the
# LDGQ1 coefficients use (z-uniaxial, x^2-y^2, xy, xz, yz).
_E = np.eye(3)
BASIS = np.array([
    math.sqrt(1.5) * (np.outer(_E[2], _E[2]) - np.eye(3) / 3.0),
    math.sqrt(0.5) * (np.outer(_E[0], _E[0]) - np.outer(_E[1], _E[1])),
    math.sqrt(0.5) * (np.outer(_E[0], _E[1]) + np.outer(_E[1], _E[0])),
    math.sqrt(0.5) * (np.outer(_E[0], _E[2]) + np.outer(_E[2], _E[0])),
    math.sqrt(0.5) * (np.outer(_E[1], _E[2]) + np.outer(_E[2], _E[1])),
])


def _discriminant(t: float) -> float:
    a = ALPHA * (t - T_STAR)
    return B * B - 24.0 * a * C


def nematic_exists(t: float) -> bool:
    """True where the nematic stationary points exist: b^2 - 24 a c >= 0."""
    return _discriminant(t) >= 0.0


def s_plus(t: float) -> float:
    """Nematic stationary scalar order parameter (b + sqrt(b^2 - 24ac)) / 4c."""
    return (B + math.sqrt(_discriminant(t))) / (4.0 * C)


def gamma(t: float) -> float:
    """The paper's low-temperature norm bound (b + sqrt(b^2 - 24ac)) / (2 sqrt(6) c)."""
    return (B + math.sqrt(_discriminant(t))) / (2.0 * math.sqrt(6.0) * C)


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    """Uniformly distributed direction, normalized so |n|^2 = 1 to roundoff."""
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _relax_config(variant_block: str, n: int, h: float, s0: float, director) -> str:
    return (
        _MATERIAL
        + f"[temperature]\nvalue = {T_LOW!r}\n"
        + variant_block
        + f"[grid]\nnx = {n}\nny = {n}\nnz = {n}\nhx = {h!r}\nhy = {h!r}\nhz = {h!r}\n"
        + "[boundary]\nkind = uniaxial\n"
        + f"s0 = {s0!r}\ndirector = {' '.join(repr(float(x)) for x in director)}\n"
        + f"[solver]\ntol = {TOL!r}\n"
    )


def relax33_config(seed: int) -> str:
    """Quartic, T = 44, 33^3 grid with h = 1, uniaxial boundary s0 = 0.9 min(s_plus, 1)."""
    director = unit_vector(np.random.default_rng([seed, 33]))
    s0 = 0.9 * min(s_plus(T_LOW), 1.0)
    return _relax_config("[functional]\nvariant = quartic\n", RELAX_N["relax-33"], 1.0, s0, director)


# The T = 44 quartic written in the polynomial interface, plus a sextic term.
POLY_A2 = 0.5 * ALPHA * (T_LOW - T_STAR)
POLY_TERMS = ((0, 1, -B / 3.0), (2, 0, C / 4.0), (3, 0, 0.5))


def relax_fine_config(seed: int) -> str:
    """Polynomial variant on a 17^3 grid with h = 0.25, uniaxial boundary s0 = 0.45."""
    director = unit_vector(np.random.default_rng([seed, 17]))
    block = "[functional]\nvariant = polynomial\n" + f"a2 = {POLY_A2!r}\n" + "".join(
        f"term = {m} {p} {co!r}\n" for m, p, co in POLY_TERMS)
    return _relax_config(block, RELAX_N["relax-fine"], 0.25, 0.45, director)


def verify_config() -> str:
    return _MATERIAL + f"[temperature]\nvalue = {T_LOW!r}\n[functional]\nvariant = quartic\n"


def sweep_config() -> str:
    start, stop, step = SWEEP
    return _MATERIAL + f"[temperature]\nstart = {start!r}\nstop = {stop!r}\nstep = {step!r}\n"


def verify_field(seed: int) -> np.ndarray:
    """Seeded 65^3 coefficient field with every node norm inside 0.9 Gamma(T = 44).

    Each node holds a uniaxial tensor s (n x n - I/3) whose director is a
    seeded per-field axis plus noise and whose s lies in [0.3, 0.9] s_plus, so
    the field passes the low-temperature audit.
    """
    rng = np.random.default_rng([seed, VERIFY_N])
    shape = (VERIFY_N,) * 3
    axis = unit_vector(rng)
    n = axis + 0.3 * rng.standard_normal(shape + (3,))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    s = s_plus(T_LOW) * rng.uniform(0.3, 0.9, size=shape)
    # coefficients of s (n x n - I/3): the traceless part projects out
    return s[..., None] * np.einsum("...i,...j,cij->...c", n, n, BASIS)


def field_text(values: np.ndarray, h: float = 1.0) -> str:
    """LDGQ1 text of a coefficient field, with round-trip float precision."""
    nx, ny, nz, _ = values.shape
    lines = [f"LDGQ1 {nx} {ny} {nz} {h!r} {h!r} {h!r}"]
    rows = values.reshape(-1, 5).tolist()
    idx = np.indices((nx, ny, nz)).reshape(3, -1).T.tolist()
    lines += [f"{i} {j} {k} {q0!r} {q1!r} {q2!r} {q3!r} {q4!r}"
              for (i, j, k), (q0, q1, q2, q3, q4) in zip(idx, rows)]
    return "\n".join(lines) + "\n"


def watson_axis(seed: int) -> np.ndarray:
    return unit_vector(np.random.default_rng([seed, 3]))


def density_csv(seed: int) -> str:
    """Watson density exp(kappa ((p . axis)^2 - 1)) sampled at uniform random directions."""
    rng = np.random.default_rng([seed, 4])
    axis = watson_axis(seed)
    theta = np.arccos(rng.uniform(-1.0, 1.0, MOMENT_SAMPLES))
    phi = rng.uniform(0.0, 2.0 * np.pi, MOMENT_SAMPLES)
    p = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], -1)
    value = np.exp(WATSON_KAPPA * ((p @ axis) ** 2 - 1.0))
    lines = ["theta,phi,value"]
    lines += [f"{t!r},{f!r},{v!r}" for t, f, v in zip(theta.tolist(), phi.tolist(), value.tolist())]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files; returns their paths by role."""
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    if workload == "relax-33":
        files["config"] = relax33_config(seed)
    elif workload == "relax-fine":
        files["config"] = relax_fine_config(seed)
    elif workload == "inspect":
        files["verify_config"] = verify_config()
        files["sweep_config"] = sweep_config()
        files["field"] = field_text(verify_field(seed))
        files["density"] = density_csv(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    suffix = {"field": ".ldgq", "density": ".csv"}
    paths = {}
    for role, text in files.items():
        path = directory / (role + suffix.get(role, ".cfg"))
        path.write_text(text)
        paths[role] = path
    return paths
