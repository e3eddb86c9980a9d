"""Command-line interface: phase sweeps, triangle reports, minimization runs,
stored-field audits, and moment oracles.

Configuration is a flat key-value text format with [section] headers; see
``parse_config`` for the accepted sections and keys. All outputs are written
under the --out directory (or $LDGQ_OUT) as plot-ready CSV/JSON, formatted
deterministically so repeat runs with a fixed seed are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import bounds, bulk, moments, qtensor, solver
from .errors import ConfigError, DivergenceError, FieldFormatError, LdgError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIVERGENCE = 3
EXIT_AUDIT = 4
EXIT_HYPOTHESIS = 5

_KNOWN_SECTIONS = {"material", "temperature", "functional", "grid", "boundary", "solver"}


@dataclass(frozen=True)
class BoundarySpec:
    """Dirichlet datum: constant uniaxial, constant biaxial, or per-face uniaxial."""

    kind: str
    s0: Optional[float] = None
    director: Optional[tuple[float, float, float]] = None
    s: Optional[float] = None
    r: Optional[float] = None
    e1: Optional[tuple[float, float, float]] = None
    e2: Optional[tuple[float, float, float]] = None
    faces: Optional[tuple[float, float, float, float, float, float]] = None


@dataclass(frozen=True)
class SolverBlock:
    tol: float = 1e-8
    max_iters: int = 200_000
    restarts: int = 0
    seed: int = 0
    slack: float = 1e-3


@dataclass(frozen=True)
class RunConfig:
    material: Optional[bulk.Material] = None
    temperature: Optional[float] = None
    sweep: Optional[tuple[float, float, float]] = None
    variant: str = "quartic"
    gl_eps: Optional[float] = None
    poly_a2: Optional[float] = None
    poly_terms: tuple[tuple[int, int, float], ...] = ()
    grid: Optional[solver.Grid3] = None
    boundary: Optional[BoundarySpec] = None
    solver: SolverBlock = SolverBlock()


def _parse_sections(text: str) -> dict[str, list[tuple[int, str, str]]]:
    sections: dict[str, list[tuple[int, str, str]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN_SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        sections[current].append((lineno, key, value))
    return sections


def _floats(value: str, lineno: int, n: int) -> tuple[float, ...]:
    parts = value.split()
    if len(parts) != n:
        raise ConfigError(f"line {lineno}: expected {n} numbers, got {len(parts)}")
    return tuple(_scalar(p, lineno, float) for p in parts)


def _scalar(value: str, lineno: int, cast):
    try:
        x = cast(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: non-numeric value '{value}'") from None
    if cast is float and not math.isfinite(x):
        raise ConfigError(f"line {lineno}: non-finite value '{value}'")
    return x


def parse_config(text: str) -> RunConfig:
    """Parse the flat sectioned key-value configuration format.

    Sections and keys:
      [material]     alpha, b, c, t_star, elastic_l
      [temperature]  value | start, stop, step (step > 0)
      [functional]   variant = quartic|polynomial|gl; eps (gl);
                     a2 and repeatable 'term = m p coeff' (polynomial)
      [grid]         nx, ny, nz, hx, hy, hz
      [boundary]     kind = uniaxial|biaxial|per-face; s0, director (uniaxial);
                     s, r, e1, e2 (biaxial); xlo..zhi, director (per-face)
      [solver]       tol (> 0); max_iters, restarts, seed, slack (>= 0)
    """
    sections = _parse_sections(text)
    cfg: dict = {}

    if "material" in sections:
        vals: dict[str, float] = {}
        for lineno, key, value in sections["material"]:
            if key not in ("alpha", "b", "c", "t_star", "elastic_l"):
                raise ConfigError(f"line {lineno}: unknown material key '{key}'")
            vals[key] = _scalar(value, lineno, float)
        missing = {"alpha", "b", "c", "t_star", "elastic_l"} - set(vals)
        if missing:
            raise ConfigError(f"[material] missing keys: {sorted(missing)}")
        try:
            cfg["material"] = bulk.Material(**vals)
        except ValueError as exc:
            raise ConfigError(f"[material]: {exc}") from None

    if "temperature" in sections:
        vals = {}
        for lineno, key, value in sections["temperature"]:
            if key not in ("value", "start", "stop", "step"):
                raise ConfigError(f"line {lineno}: unknown temperature key '{key}'")
            vals[key] = _scalar(value, lineno, float)
        if "value" in vals:
            if len(vals) > 1:
                raise ConfigError("[temperature] takes either value or start/stop/step")
            cfg["temperature"] = vals["value"]
        else:
            if set(vals) != {"start", "stop", "step"}:
                raise ConfigError("[temperature] sweep needs start, stop and step")
            if vals["step"] <= 0.0:
                raise ConfigError("[temperature] sweep step must be positive")
            cfg["sweep"] = (vals["start"], vals["stop"], vals["step"])

    if "functional" in sections:
        terms: list[tuple[int, int, float]] = []
        for lineno, key, value in sections["functional"]:
            if key == "variant":
                if value not in ("quartic", "polynomial", "gl"):
                    raise ConfigError(f"line {lineno}: unknown variant '{value}'")
                cfg["variant"] = value
            elif key == "eps":
                cfg["gl_eps"] = _scalar(value, lineno, float)
            elif key == "a2":
                cfg["poly_a2"] = _scalar(value, lineno, float)
            elif key == "term":
                m, p, co = _floats(value, lineno, 3)
                if m != int(m) or p != int(p):
                    raise ConfigError(f"line {lineno}: term exponents must be integers")
                terms.append((int(m), int(p), co))
            else:
                raise ConfigError(f"line {lineno}: unknown functional key '{key}'")
        cfg["poly_terms"] = tuple(terms)

    if "grid" in sections:
        gvals: dict = {}
        for lineno, key, value in sections["grid"]:
            if key in ("nx", "ny", "nz"):
                gvals[key] = _scalar(value, lineno, int)
            elif key in ("hx", "hy", "hz"):
                gvals[key] = _scalar(value, lineno, float)
            else:
                raise ConfigError(f"line {lineno}: unknown grid key '{key}'")
        missing = {"nx", "ny", "nz", "hx", "hy", "hz"} - set(gvals)
        if missing:
            raise ConfigError(f"[grid] missing keys: {sorted(missing)}")
        try:
            cfg["grid"] = solver.Grid3(**gvals)
        except ValueError as exc:
            raise ConfigError(f"[grid]: {exc}") from None

    if "boundary" in sections:
        bvals: dict = {}
        faces: dict[str, float] = {}
        for lineno, key, value in sections["boundary"]:
            if key == "kind":
                if value not in ("uniaxial", "biaxial", "per-face"):
                    raise ConfigError(f"line {lineno}: unknown boundary kind '{value}'")
                bvals["kind"] = value
            elif key in ("s0", "s", "r"):
                bvals[key] = _scalar(value, lineno, float)
            elif key in ("director", "e1", "e2"):
                bvals[key] = _floats(value, lineno, 3)
            elif key in ("xlo", "xhi", "ylo", "yhi", "zlo", "zhi"):
                faces[key] = _scalar(value, lineno, float)
            else:
                raise ConfigError(f"line {lineno}: unknown boundary key '{key}'")
        kind = bvals.get("kind")
        if kind is None:
            raise ConfigError("[boundary] missing 'kind'")
        if kind == "uniaxial":
            if "s0" not in bvals or "director" not in bvals:
                raise ConfigError("[boundary] uniaxial needs s0 and director")
            cfg["boundary"] = BoundarySpec(kind=kind, s0=bvals["s0"], director=bvals["director"])
        elif kind == "biaxial":
            needed = {"s", "r", "e1", "e2"}
            if not needed <= set(bvals):
                raise ConfigError(f"[boundary] biaxial needs {sorted(needed)}")
            cfg["boundary"] = BoundarySpec(
                kind=kind, s=bvals["s"], r=bvals["r"], e1=bvals["e1"], e2=bvals["e2"]
            )
        else:
            order = ("xlo", "xhi", "ylo", "yhi", "zlo", "zhi")
            missing = set(order) - set(faces)
            if missing or "director" not in bvals:
                raise ConfigError("[boundary] per-face needs xlo..zhi and director")
            cfg["boundary"] = BoundarySpec(
                kind=kind,
                director=bvals["director"],
                faces=tuple(faces[k] for k in order),
            )

    if "solver" in sections:
        svals: dict = {}
        for lineno, key, value in sections["solver"]:
            if key in ("tol", "slack"):
                svals[key] = _scalar(value, lineno, float)
            elif key in ("max_iters", "restarts", "seed"):
                svals[key] = _scalar(value, lineno, int)
            else:
                raise ConfigError(f"line {lineno}: unknown solver key '{key}'")
            if key == "tol" and not svals[key] > 0.0:
                raise ConfigError(f"line {lineno}: tol must be positive")
            if svals[key] < 0:
                raise ConfigError(f"line {lineno}: {key} must be nonnegative")
        cfg["solver"] = SolverBlock(**svals)

    return RunConfig(**cfg)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text for a RunConfig; parse(serialize(parse(t))) == parse(t)."""
    out: list[str] = []
    if cfg.material is not None:
        m = cfg.material
        out.append("[material]")
        for key in ("alpha", "b", "c", "t_star", "elastic_l"):
            out.append(f"{key} = {getattr(m, key)!r}")
    if cfg.temperature is not None or cfg.sweep is not None:
        out.append("[temperature]")
        if cfg.temperature is not None:
            out.append(f"value = {cfg.temperature!r}")
        else:
            start, stop, step = cfg.sweep
            out.append(f"start = {start!r}")
            out.append(f"stop = {stop!r}")
            out.append(f"step = {step!r}")
    out.append("[functional]")
    out.append(f"variant = {cfg.variant}")
    if cfg.gl_eps is not None:
        out.append(f"eps = {cfg.gl_eps!r}")
    if cfg.poly_a2 is not None:
        out.append(f"a2 = {cfg.poly_a2!r}")
    for m, p, co in cfg.poly_terms:
        out.append(f"term = {m} {p} {co!r}")
    if cfg.grid is not None:
        g = cfg.grid
        out.append("[grid]")
        for key in ("nx", "ny", "nz"):
            out.append(f"{key} = {getattr(g, key)}")
        for key in ("hx", "hy", "hz"):
            out.append(f"{key} = {getattr(g, key)!r}")
    if cfg.boundary is not None:
        b = cfg.boundary
        out.append("[boundary]")
        out.append(f"kind = {b.kind}")
        if b.kind == "uniaxial":
            out.append(f"s0 = {b.s0!r}")
            out.append("director = " + " ".join(repr(v) for v in b.director))
        elif b.kind == "biaxial":
            out.append(f"s = {b.s!r}")
            out.append(f"r = {b.r!r}")
            out.append("e1 = " + " ".join(repr(v) for v in b.e1))
            out.append("e2 = " + " ".join(repr(v) for v in b.e2))
        else:
            for key, val in zip(("xlo", "xhi", "ylo", "yhi", "zlo", "zhi"), b.faces):
                out.append(f"{key} = {val!r}")
            out.append("director = " + " ".join(repr(v) for v in b.director))
    s = cfg.solver
    out.append("[solver]")
    out.append(f"tol = {s.tol!r}")
    out.append(f"max_iters = {s.max_iters}")
    out.append(f"restarts = {s.restarts}")
    out.append(f"seed = {s.seed}")
    out.append(f"slack = {s.slack!r}")
    return "\n".join(out) + "\n"


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"this command needs the [{name}] block")


def build_functional(cfg: RunConfig, temperature: float) -> bulk.BulkFunctional:
    if cfg.variant == "quartic":
        _require(cfg, "material")
        return bulk.Quartic(cfg.material, temperature)
    if cfg.variant == "gl":
        _require(cfg, "material")
        if cfg.gl_eps is None:
            raise ConfigError("[functional] gl variant needs eps")
        return bulk.GLPenalized(cfg.material, temperature, cfg.gl_eps)
    if cfg.poly_a2 is None or not cfg.poly_terms:
        raise ConfigError("[functional] polynomial variant needs a2 and term entries")
    try:
        return bulk.Polynomial(cfg.poly_a2, cfg.poly_terms)
    except ValueError as exc:
        raise ConfigError(f"[functional]: {exc}") from None


def boundary_values(grid: solver.Grid3, spec: BoundarySpec) -> np.ndarray:
    """Full-shape array whose face entries hold the Dirichlet datum."""
    values = np.zeros(grid.shape + (5,))
    if spec.kind == "uniaxial":
        values[...] = qtensor.uniaxial_coeffs(spec.s0, spec.director)
    elif spec.kind == "biaxial":
        q = qtensor.make_biaxial(spec.s, spec.r, spec.e1, spec.e2)
        values[...] = q.coeffs
    else:
        base = qtensor.uniaxial_coeffs(1.0, spec.director)
        xlo, xhi, ylo, yhi, zlo, zhi = spec.faces
        # later assignments win on edges and corners
        values[:, :, 0] = zlo * base
        values[:, :, -1] = zhi * base
        values[:, 0, :] = ylo * base
        values[:, -1, :] = yhi * base
        values[0, :, :] = xlo * base
        values[-1, :, :] = xhi * base
    return values


def _temperatures(cfg: RunConfig) -> list[float]:
    if cfg.temperature is not None:
        return [cfg.temperature]
    if cfg.sweep is not None:
        start, stop, step = cfg.sweep
        # relative bump so a stop that lands on the grid is included
        n = int(np.floor((stop - start) / step * (1.0 + 1e-12) + 1e-9)) + 1
        return [start + i * step for i in range(max(n, 0))]
    raise ConfigError("this command needs a [temperature] block")


def _json_default(obj):
    """JSON encoding of the dataclasses and numpy values the reports hold."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _dump_json(path: Path, obj) -> str:
    text = json.dumps(obj, default=_json_default, sort_keys=True, indent=2) + "\n"
    path.write_text(text)
    return text


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else repr(float(x))


def cmd_phase(cfg: RunConfig, out_dir: Path) -> int:
    """Stationary-point sweep: one CSV row per temperature."""
    _require(cfg, "material")
    m = cfg.material
    rows = ["T,a,s_plus,s_minus,f_plus,f_minus,regime"]
    for t in _temperatures(cfg):
        a = bulk.a_of_temperature(m, t)
        rep = bulk.stationary_scalars(m, t)
        if rep.s_plus is None:
            regime = "isotropic-only"
        elif rep.global_min_is_nematic:
            regime = "below-NI"
        else:
            regime = "metastable"
        rows.append(
            f"{_fmt(t)},{_fmt(a)},{_fmt(rep.s_plus)},{_fmt(rep.s_minus)},"
            f"{_fmt(rep.f_at_plus)},{_fmt(rep.f_at_minus)},{regime}"
        )
    path = out_dir / "phase.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_triangles(cfg: RunConfig, out_dir: Path) -> int:
    """Triangle report per temperature, serialized to JSON."""
    _require(cfg, "material")
    reports = [bounds.triangle_report(cfg.material, t) for t in _temperatures(cfg)]
    path = out_dir / "triangles.json"
    _dump_json(path, reports)
    print(f"wrote {path}")
    return EXIT_OK


def _audit_exit(audit: bounds.BoundAudit, converged: bool) -> int:
    if converged and audit.satisfied:
        return EXIT_OK
    if not audit.satisfied and not audit.hypothesis_met:
        return EXIT_HYPOTHESIS
    if not audit.satisfied:
        return EXIT_AUDIT
    return EXIT_DIVERGENCE  # converged is False: solver gave up


def cmd_minimize(cfg: RunConfig, out_dir: Path) -> int:
    """Relax a field from boundary data, then write field, report, and audit."""
    _require(cfg, "material", "grid", "boundary")
    temps = _temperatures(cfg)
    if len(temps) != 1:
        raise ConfigError("minimize needs a single temperature, not a sweep")
    t = temps[0]
    fun = build_functional(cfg, t)
    sblock = cfg.solver
    scfg = solver.SolverConfig(
        functional=fun,
        elastic_l=cfg.material.elastic_l,
        tol_residual=sblock.tol,
        max_iters=sblock.max_iters,
    )

    bvals = boundary_values(cfg.grid, cfg.boundary)
    base_field = solver.harmonic_interior(solver.QField.from_boundary(cfg.grid, bvals))

    # Perturbation amplitude for restarts: a tenth of the relevant norm scale.
    try:
        amp = 0.1 * bounds.elastic_bound_gamma(cfg.material, t)
    except LdgError:
        boundary_norm = float(np.sqrt((bvals[base_field.boundary_mask] ** 2).sum(-1)).max())
        amp = 0.1 * boundary_norm

    runs: list[tuple[solver.QField, solver.SolveReport]] = []
    field, report = solver.minimize(base_field, scfg)
    runs.append((field, dataclasses.replace(report, seed=None)))
    interior = ~base_field.boundary_mask
    for restart in range(sblock.restarts):
        rng = np.random.default_rng(sblock.seed + restart)
        perturbed = base_field.values.copy()
        perturbed[interior] += amp * rng.standard_normal(perturbed[interior].shape)
        field, report = solver.minimize(base_field.with_values(perturbed), scfg)
        runs.append((field, dataclasses.replace(report, seed=sblock.seed + restart)))

    converged_runs = [run for run in runs if run[1].converged]
    pool = converged_runs or runs
    field, report = min(pool, key=lambda run: run[1].final_energy)

    audit = bounds.audit_field(field, fun, cfg.material, t, slack=sblock.slack)

    field_path = out_dir / "field.ldgq"
    solver.write_field(field_path, field)
    _dump_json(out_dir / "solve_report.json", report)
    _dump_json(out_dir / "audit.json", audit)
    print(f"wrote {field_path}")
    print(f"wrote {out_dir / 'solve_report.json'}")
    print(f"wrote {out_dir / 'audit.json'}")
    return _audit_exit(audit, report.converged)


def cmd_verify(field_path: str, cfg: RunConfig, out_dir: Path) -> int:
    """Audit a stored field without re-solving."""
    _require(cfg, "material")
    temps = _temperatures(cfg)
    if len(temps) != 1:
        raise ConfigError("verify needs a single temperature, not a sweep")
    t = temps[0]
    fun = build_functional(cfg, t)
    field = solver.read_field(field_path)
    audit = bounds.audit_field(field, fun, cfg.material, t, slack=cfg.solver.slack)
    text = _dump_json(out_dir / "verify_audit.json", audit)
    sys.stdout.write(text)
    return _audit_exit(audit, converged=True)


def cmd_moments(density_csv: str, level: int, out_dir: Path) -> int:
    """Second-moment oracle for a sampled density."""
    if level < 1:
        raise ConfigError("--level must be >= 1")
    quad = moments.build_quadrature(level)
    psi = moments.load_density_csv(density_csv, quad)
    q = moments.q_from_psi(psi, quad)
    eig = qtensor.eigenvalues_desc(q.coeffs)
    params = qtensor.order_params(q)
    payload = {
        "coeffs": q.coeffs,
        "eigenvalues": eig,
        "s": params.s,
        "r": params.r,
        "in_physical_triangle": moments.audit_eigen_bounds(q, tol=1e-8),
    }
    text = _dump_json(out_dir / "moments.json", payload)
    sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldgq",
        description="Q-tensor phase analysis, energy minimization, and bound audits "
        "for nematic liquid crystals",
    )
    parser.add_argument("--out", default=None, help="output directory (default $LDGQ_OUT or .)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("phase", "triangles", "minimize"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
    p = sub.add_parser("verify")
    p.add_argument("field", help="LDGQ1 field file")
    p.add_argument("--config", required=True)
    p = sub.add_parser("moments")
    p.add_argument("density", help="CSV of theta,phi,value samples (radians)")
    p.add_argument("--level", type=int, default=16)
    return parser


def _load_config(path: str) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out or os.environ.get("LDGQ_OUT") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "phase":
            return cmd_phase(_load_config(args.config), out_dir)
        if args.command == "triangles":
            return cmd_triangles(_load_config(args.config), out_dir)
        if args.command == "minimize":
            return cmd_minimize(_load_config(args.config), out_dir)
        if args.command == "verify":
            return cmd_verify(args.field, _load_config(args.config), out_dir)
        if args.command == "moments":
            return cmd_moments(args.density, args.level, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, FieldFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except LdgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
