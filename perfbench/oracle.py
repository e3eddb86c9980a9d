"""Output checks for every op, recomputed by the benchmark with numpy.

Each check function returns a list of failure messages; an empty list means
the op's outputs are correct. The recomputations use the plain 3x3-matrix
formulation and the paper's closed forms from ``gen``, not the program's code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

import gen

# Final energies of the relax workloads. The seed only rotates the boundary
# director and the energy is rotation invariant, so one value serves every seed.
REFERENCE_ENERGY = {
    "relax-33": -8065.209002898585,
    "relax-fine": -4.727562033152988,
}
ENERGY_RTOL = 1e-9
# Recomputed and reported values of the same quantity differ by summation order.
ROUNDOFF_RTOL = 1e-12
MAX_AXIS_DEGREES = 5.0

OUTPUTS = {
    "relax-33": ("field.ldgq", "solve_report.json", "audit.json"),
    "relax-fine": ("field.ldgq", "solve_report.json", "audit.json"),
    "inspect": ("verify_audit.json", "phase.csv", "triangles.json", "moments.json"),
}


def digests(workload: str, out_dir: Path) -> dict:
    """sha256 of each output file of one op, to compare repeated ops."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in OUTPUTS[workload]}


def read_field(path: Path) -> tuple[np.ndarray, float]:
    """Parse LDGQ1 text into an (nx, ny, nz, 5) array and the spacing hx."""
    with open(path) as fh:
        header = fh.readline().split()
        rows = np.loadtxt(fh, ndmin=2)
    nx, ny, nz = (int(t) for t in header[1:4])
    hx, hy, hz = (float(t) for t in header[4:7])
    if header[0] != "LDGQ1" or rows.shape != (nx * ny * nz, 8) or not hx == hy == hz:
        raise ValueError(f"{path}: not a cubic LDGQ1 field")
    return rows[:, 3:].reshape(nx, ny, nz, 5), hx


def matrices(coeffs: np.ndarray) -> np.ndarray:
    return np.einsum("...c,cij->...ij", coeffs, gen.BASIS)


def interior_laplacian(values: np.ndarray, h: float) -> np.ndarray:
    """7-point Laplacian at interior nodes, shape (nx-2, ny-2, nz-2, 5)."""
    c = values[1:-1, 1:-1, 1:-1]
    return (values[2:, 1:-1, 1:-1] + values[:-2, 1:-1, 1:-1]
            + values[1:-1, 2:, 1:-1] + values[1:-1, :-2, 1:-1]
            + values[1:-1, 1:-1, 2:] + values[1:-1, 1:-1, :-2] - 6.0 * c) / (h * h)


def max_node_norm(arr: np.ndarray) -> float:
    return float(np.sqrt((arr * arr).sum(-1)).max())


def bulk_gradient(workload: str, coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of dF/dQ, from 3x3 matrices, for the workload's bulk density."""
    q = matrices(coeffs)
    q2 = q @ q
    tr2 = np.trace(q2, axis1=-2, axis2=-1)
    tr3 = np.einsum("...ij,...ji->...", q2, q)
    if workload == "relax-33":
        a = gen.ALPHA * (gen.T_LOW - gen.T_STAR)
        dfdq = (a + gen.C * tr2)[..., None, None] * q - gen.B * q2
    else:
        dfdq = 2.0 * gen.POLY_A2 * q
        for m, p, co in gen.POLY_TERMS:
            if m:
                dfdq = dfdq + (2.0 * m * co * tr2 ** (m - 1) * tr3**p)[..., None, None] * q
            if p:
                dfdq = dfdq + (3.0 * p * co * tr2**m * tr3 ** (p - 1))[..., None, None] * q2
    # the basis is traceless, so this projection drops the trace part of Q^2
    return np.einsum("...ij,cij->...c", dfdq, gen.BASIS)


def el_residual_max(workload: str, values: np.ndarray, h: float) -> float:
    """Max node norm of 2 L lap_h Q - dF/dQ over interior nodes."""
    res = (2.0 * gen.ELASTIC_L * interior_laplacian(values, h)
           - bulk_gradient(workload, values[1:-1, 1:-1, 1:-1]))
    return max_node_norm(res)


def check_relax(workload: str, out_dir: Path) -> list[str]:
    errors = []
    report = json.loads((out_dir / "solve_report.json").read_text())
    audit = json.loads((out_dir / "audit.json").read_text())
    values, h = read_field(out_dir / "field.ldgq")
    if not report["converged"]:
        errors.append("solve did not converge")
    if not report["final_residual_maxnorm"] <= gen.TOL:
        errors.append(f"reported residual {report['final_residual_maxnorm']} > tol")
    residual = el_residual_max(workload, values, h)
    if not residual <= gen.TOL * (1.0 + ROUNDOFF_RTOL):
        errors.append(f"recomputed residual {residual} > tol")
    if workload == "relax-33":
        norm = max_node_norm(values)
        if not norm <= gen.gamma(gen.T_LOW):
            errors.append(f"max |Q| {norm} exceeds Gamma {gen.gamma(gen.T_LOW)}")
    elif not (audit["regime"] == "Polynomial" and audit["satisfied"]):
        errors.append(f"audit {audit['regime']} satisfied={audit['satisfied']}")
    ref = REFERENCE_ENERGY[workload]
    if not abs(report["final_energy"] - ref) <= ENERGY_RTOL * abs(ref):
        errors.append(f"final energy {report['final_energy']!r} differs from {ref!r}")
    return errors


def check_inspect(seed: int, field: np.ndarray, out_dir: Path) -> list[str]:
    errors = []
    audit = json.loads((out_dir / "verify_audit.json").read_text())
    norms = np.sqrt((field * field).sum(-1))[1:-1, 1:-1, 1:-1]
    expected = float(norms.max())
    satisfied = expected <= gen.gamma(gen.T_LOW) * (1.0 + audit["slack"])
    if not math.isclose(audit["max_interior_norm"], expected, rel_tol=ROUNDOFF_RTOL):
        errors.append(f"verify max_interior_norm {audit['max_interior_norm']} != {expected}")
    if audit["satisfied"] != satisfied or audit["regime"] != "LowTemp":
        errors.append(f"verify verdict {audit['regime']}/{audit['satisfied']}")

    with open(out_dir / "phase.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != gen.SWEEP_ROWS:
        errors.append(f"phase.csv has {len(rows)} rows")
    else:
        sample = np.random.default_rng([seed, 5]).choice(len(rows), 64, replace=False)
        for i in sample.tolist():
            t = float(rows[i]["T"])
            got = rows[i]["s_plus"]
            if gen.nematic_exists(t):
                ok = bool(got) and math.isclose(float(got), gen.s_plus(t), rel_tol=ROUNDOFF_RTOL)
            else:
                ok = got == ""
            if not ok:
                errors.append(f"phase.csv row {i} (T = {t!r}): s_plus {got!r}")

    reports = json.loads((out_dir / "triangles.json").read_text())
    if len(reports) != gen.SWEEP_ROWS:
        errors.append(f"triangles.json has {len(reports)} entries")

    mom = json.loads((out_dir / "moments.json").read_text())
    eig = np.asarray(mom["eigenvalues"])
    if not (eig.min() >= -1.0 / 3.0 - 1e-12 and eig.max() <= 2.0 / 3.0 + 1e-12):
        errors.append(f"moment eigenvalues {eig.tolist()} outside [-1/3, 2/3]")
    _, vecs = np.linalg.eigh(matrices(np.asarray(mom["coeffs"])))
    cos = min(1.0, abs(float(vecs[:, -1] @ gen.watson_axis(seed))))
    angle = math.degrees(math.acos(cos))
    if not angle <= MAX_AXIS_DEGREES:
        errors.append(f"moment axis {angle:.2f} degrees from the Watson axis")
    return errors
