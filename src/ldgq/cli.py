"""Command-line interface: phase sweeps, triangle reports, minimization runs,
stored-field audits, and moment oracles.

Configuration is a flat key-value text format with [section] headers; see
``_SCHEMA`` for the accepted sections and keys. All outputs are written
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
from .errors import ConfigError, DivergenceError, LdgError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIVERGENCE = 3
EXIT_AUDIT = 4
EXIT_HYPOTHESIS = 5


_SOLVER_DEFAULTS = {"tol": solver.SolverConfig.tol_residual,
                    "max_iters": solver.SolverConfig.max_iters, "restarts": 0, "seed": 0}
# The most float64 values numpy can size in one array; a larger count cannot be held.
_MAX_VALUES = np.iinfo(np.intp).max // 8
# Fewest interior nodes on which data relax on their frame's line or plane. Below it the
# line and its check take about 7 ms where the five-component flow takes 12 ms at 17^3
# (the benchmark's relax-fine; in-process medians on a 2-vCPU VM), which could take that
# op under the 25 ms sampling period of perfbench/refclock.py, which counts such an op
# as failed (ROADMAP item 1). Once that is mended, this can be 0.
_LINE_MIN_INTERIOR = 10_000


@dataclass(frozen=True)
class RunConfig:
    """The parsed config; ``functional``, ``boundary`` and ``solver`` hold their
    sections' keys as read, with the variant and the solver defaults filled in."""

    material: Optional[bulk.Material] = None
    temperature: Optional[float] = None
    sweep: Optional[tuple[float, float, float]] = None
    functional: dict = dataclasses.field(default_factory=lambda: {"variant": "quartic"})
    grid: Optional[solver.Grid3] = None
    boundary: Optional[dict] = None
    solver: dict = dataclasses.field(default_factory=lambda: dict(_SOLVER_DEFAULTS))


def _number(cast, rule: str = ""):
    """Reader of one number, finite if a float; ``rule`` is '', 'positive' or 'nonnegative'."""
    def read(key: str, value: str, lineno: int):
        try:
            x = cast(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: non-numeric value '{value}'") from None
        if cast is float and not math.isfinite(x):
            raise ConfigError(f"line {lineno}: non-finite value '{value}'")
        if (rule == "positive" and not x > 0) or (rule == "nonnegative" and x < 0):
            raise ConfigError(f"line {lineno}: {key} must be {rule}")
        return x
    return read


def _choice(noun: str, *options: str):
    def read(key: str, value: str, lineno: int) -> str:
        if value not in options:
            raise ConfigError(f"line {lineno}: unknown {noun} '{value}'")
        return value
    return read


def _vector(key: str, value: str, lineno: int) -> tuple[float, ...]:
    parts = value.split()
    if len(parts) != 3:
        raise ConfigError(f"line {lineno}: expected 3 numbers, got {len(parts)}")
    return tuple(_FLOAT(key, p, lineno) for p in parts)


def _term(key: str, value: str, lineno: int) -> tuple[int, int, float]:
    """One 'term = m p coeff' line; the key repeats, and the terms are kept as a tuple."""
    m, p, co = _vector(key, value, lineno)
    if m != int(m) or p != int(p):
        raise ConfigError(f"line {lineno}: term exponents must be integers")
    return int(m), int(p), co


_FLOAT = _number(float)
_SWEEP = ("start", "stop", "step")
_FACES = ("xlo", "xhi", "ylo", "yhi", "zlo", "zhi")
# the keys each boundary kind needs
_BOUNDARY_NEEDS = {
    "uniaxial": ("s0", "director"),
    "biaxial": ("s", "r", "e1", "e2"),
    "per-face": (*_FACES, "director"),
}
# the keys each functional variant needs besides 'variant'
_VARIANT_NEEDS = {"quartic": (), "gl": ("eps",), "polynomial": ("a2", "term")}
# Every section, its keys and each key's reader; parse_config reads every line through it.
_SCHEMA = {
    "material": dict.fromkeys(("alpha", "b", "c", "t_star", "elastic_l"), _FLOAT),
    "temperature": dict.fromkeys(("value", *_SWEEP), _FLOAT),
    "functional": {
        "variant": _choice("variant", *_VARIANT_NEEDS),
        "eps": _number(float, "positive"),
        "a2": _FLOAT,
        "term": _term,
    },
    "grid": {**dict.fromkeys(("nx", "ny", "nz"), _number(int)),
             **dict.fromkeys(("hx", "hy", "hz"), _FLOAT)},
    "boundary": {
        "kind": _choice("boundary kind", *_BOUNDARY_NEEDS),
        **dict.fromkeys(("s0", "s", "r"), _FLOAT),
        **dict.fromkeys(("e1", "e2"), _vector),
        **dict.fromkeys(_FACES, _FLOAT),
        "director": _vector,
    },
    "solver": {
        "tol": _number(float, "positive"),
        **dict.fromkeys(("max_iters", "restarts", "seed"), _number(int, "nonnegative")),
    },
}


def _parse_sections(text: str) -> dict[str, dict[str, object]]:
    """Read every line against ``_SCHEMA``: {section: {key: value}}.

    A repeated key keeps its last value, except ``term``, which collects a tuple.
    """
    sections: dict[str, dict[str, object]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        read = _SCHEMA[current].get(key)
        if read is None:
            raise ConfigError(f"line {lineno}: unknown {current} key '{key}'")
        value = read(key, value, lineno)
        if read is _term:
            value = (*sections[current].get(key, ()), value)
        sections[current][key] = value
    return sections


def _checked(name: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ValueError raised as the section's ConfigError."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from None


def _construct(sections: dict, name: str, build):
    """The section's object, built from all of its keys (each one is required)."""
    vals = sections[name]
    missing = set(_SCHEMA[name]) - set(vals)
    if missing:
        raise ConfigError(f"[{name}] missing keys: {sorted(missing)}")
    return _checked(name, build, **vals)


def _chosen(vals: dict, section: str, key: str, needs: dict, default=None) -> str:
    """The section's choice under ``key``, once it has every key it needs and no other."""
    choice = vals.get(key, default)
    if choice is None:
        raise ConfigError(f"[{section}] missing '{key}'")
    if not set(needs[choice]) <= set(vals):
        raise ConfigError(f"[{section}] {choice} needs {sorted(needs[choice])}")
    unused = set(vals) - {key, *needs[choice]}
    if unused:
        raise ConfigError(f"[{section}] {choice} does not use {sorted(unused)}")
    return choice


def parse_config(text: str) -> RunConfig:
    """Parse the flat sectioned key-value configuration format.

    ``_SCHEMA`` lists the sections, their keys and each key's reader; this
    function applies the rules that span several keys, the polynomial's term
    rules and the boundary frame's among them, so every command rejects the
    same configs.
    """
    sections = _parse_sections(text)
    cfg: dict = {}
    if "material" in sections:
        cfg["material"] = _construct(sections, "material", bulk.Material)
    if "temperature" in sections:
        vals = sections["temperature"]
        if "value" in vals:
            if len(vals) > 1:
                raise ConfigError("[temperature] takes either value or start/stop/step")
            cfg["temperature"] = vals["value"]
        else:
            if set(vals) != set(_SWEEP):
                raise ConfigError("[temperature] sweep needs start, stop and step")
            if vals["step"] <= 0.0:
                raise ConfigError("[temperature] sweep step must be positive")
            cfg["sweep"] = tuple(vals[k] for k in _SWEEP)
    vals = sections.get("functional", {})
    variant = _chosen(vals, "functional", "variant", _VARIANT_NEEDS, default="quartic")
    cfg["functional"] = {**vals, "variant": variant}
    if variant == "polynomial":
        poly = _checked("functional", bulk.Polynomial, vals["a2"], vals["term"])
        if poly.degree - 1 > _MAX_VALUES:  # the norm bound's root search holds degree - 1 values
            raise ConfigError("[functional] term degree is too large to hold")
    if "grid" in sections:
        grid = cfg["grid"] = _construct(sections, "grid", solver.Grid3)
        if math.prod(grid.shape) * 5 > _MAX_VALUES:
            raise ConfigError(f"[grid] {grid.nx} x {grid.ny} x {grid.nz} is too large to hold")
    if "boundary" in sections:
        vals = sections["boundary"]
        _chosen(vals, "boundary", "kind", _BOUNDARY_NEEDS)
        _checked("boundary", _datum, vals)
        cfg["boundary"] = vals
    cfg["solver"] = {**_SOLVER_DEFAULTS, **sections.get("solver", {})}
    return RunConfig(**cfg)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"this command needs the [{name}] block")


def build_functional(cfg: RunConfig, temperature: Optional[float]) -> bulk.BulkFunctional:
    """The configured bulk density; the polynomial one reads no temperature.

    The quartic and GL densities reject a temperature below the linear law's
    floor, as ``phase`` and ``triangles`` do.
    """
    fun = cfg.functional
    if fun["variant"] == "polynomial":
        return bulk.Polynomial(fun["a2"], fun["term"])
    bulk.linear_law_a(cfg.material, temperature)
    if fun["variant"] == "gl":
        return bulk.GLPenalized(cfg.material, temperature, fun["eps"])
    return bulk.Quartic(cfg.material, temperature)


def _datum(boundary: dict) -> np.ndarray:
    """The constant datum's five coefficients, or per-face the director's at s = 1.

    Raises FrameError for a director or an e1, e2 pair that is not a unit frame.
    """
    if boundary["kind"] == "biaxial":
        return qtensor.make_biaxial(boundary["s"], boundary["r"], boundary["e1"],
                                    boundary["e2"]).coeffs
    return qtensor.uniaxial_coeffs(boundary.get("s0", 1.0), boundary["director"])


def boundary_values(grid: solver.Grid3, boundary: dict) -> np.ndarray:
    """Full-shape array whose face entries hold the ``[boundary]`` section's datum."""
    values = np.zeros(grid.shape + (5,))
    base = _datum(boundary)
    if boundary["kind"] != "per-face":
        values[...] = base
        return values
    # later assignments win on edges and corners
    values[:, :, 0] = boundary["zlo"] * base
    values[:, :, -1] = boundary["zhi"] * base
    values[:, 0, :] = boundary["ylo"] * base
    values[:, -1, :] = boundary["yhi"] * base
    values[0, :, :] = boundary["xlo"] * base
    values[-1, :, :] = boundary["xhi"] * base
    return values


def _temperatures(cfg: RunConfig) -> np.ndarray:
    if cfg.temperature is not None:
        return np.array([cfg.temperature])
    if cfg.sweep is not None:
        start, stop, step = cfg.sweep
        # relative bump so a stop that lands on the grid is included
        last = np.floor((stop - start) / step * (1.0 + 1e-12) + 1e-9)
        if not math.isfinite(last):
            raise ConfigError("[temperature] sweep has no finite number of temperatures")
        if last >= _MAX_VALUES:
            raise ConfigError("[temperature] sweep has too many temperatures to hold")
        return start + np.arange(max(int(last) + 1, 0)) * step
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


def cmd_phase(cfg: RunConfig, out_dir: Path) -> int:
    """Stationary-point sweep: one CSV row per temperature."""
    _require(cfg, "material")
    col = bulk.stationary_columns(cfg.material, _temperatures(cfg))
    rows = ["T,a,s_plus,s_minus,f_plus,f_minus,regime"]
    rows += [
        f"{t!r},{a!r},{sp!r},{sm!r},{fp!r},{fm!r},{'below-NI' if below_ni else 'metastable'}"
        if nematic else f"{t!r},{a!r},,,,,isotropic-only"
        for t, a, nematic, sp, sm, fp, fm, below_ni in zip(*(c.tolist() for c in col))
    ]
    path = out_dir / "phase.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def _json_texts(values: list) -> list[str]:
    """The JSON text of each number or bool in ``values``, as ``json.dumps`` writes it."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _negated_json(text: str) -> str:
    """The JSON text of -x from the JSON text of x; ``json.dumps`` writes NaN unsigned."""
    if text.startswith("-"):
        return text[1:]
    return text if text == "NaN" else "-" + text


# One temperature's object of triangles.json as _dump_json lays it out inside the
# list (sort_keys, indent=2): its vertex lists, then the whole object.
def _vertices_json(eta: str) -> str:
    minus_eta = _negated_json(eta)
    return f"""[
      [
        {eta},
        0.0
      ],
      [
        0.0,
        {eta}
      ],
      [
        {minus_eta},
        {minus_eta}
      ]
    ]"""


_ORIGIN_JSON = """[
      [
        0.0,
        0.0
      ]
    ]"""


def _report_json(t, bulk_vertices, crossing, contains_t_psi, elastic_vertices, gamma,
                 in_t_psi) -> str:
    return f"""  {{
    "bulk_vertices": {bulk_vertices},
    "crossing_temps": [
      {crossing[0]},
      {crossing[1]}
    ],
    "elastic_contains_t_psi": {contains_t_psi},
    "elastic_vertices": {elastic_vertices},
    "gamma": {gamma},
    "t_psi_contains_elastic": {in_t_psi},
    "temperature": {t}
  }}"""


def cmd_triangles(cfg: RunConfig, out_dir: Path) -> int:
    """Triangle report per temperature, serialized to JSON."""
    _require(cfg, "material")
    col = bounds.triangle_columns(cfg.material, _temperatures(cfg))
    crossing = _json_texts(list(col.crossing_temps))
    texts = (
        _json_texts(c.tolist())
        for c in (col.t, col.bulk_scale, col.gamma, col.elastic_scale,
                  col.t_psi_contains_elastic, col.elastic_contains_t_psi)
    )
    reports = [
        _report_json(t, _vertices_json(s), crossing, contains_t_psi, _vertices_json(eta),
                     gamma, in_t_psi)
        if nematic else
        _report_json(t, _ORIGIN_JSON, crossing, contains_t_psi, "null", "null", in_t_psi)
        for nematic, t, s, gamma, eta, in_t_psi, contains_t_psi
        in zip(col.nematic.tolist(), *texts)
    ]
    path = out_dir / "triangles.json"
    path.write_text("[\n" + ",\n".join(reports) + "\n]\n" if reports else "[]\n")
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


def _functional_at_one_temperature(cfg: RunConfig, command: str) -> bulk.BulkFunctional:
    if cfg.functional["variant"] == "polynomial":
        return build_functional(cfg, None)
    temps = _temperatures(cfg)
    if len(temps) != 1:
        raise ConfigError(f"{command} needs a single temperature, not a sweep")
    return build_functional(cfg, float(temps[0]))


def cmd_minimize(cfg: RunConfig, out_dir: Path) -> int:
    """Relax the harmonic start and each restart's perturbed one; write field, report, audit.

    On grids with at least ``_LINE_MIN_INTERIOR`` interior nodes the datum relaxes in its
    frame's subspace, which certifies its end in five components: the director's line
    (uniaxial and per-face data) or the e1, e2 plane (biaxial data). The restarts perturb
    that field. Every other start relaxes in five components.
    """
    _require(cfg, "material", "grid", "boundary")
    fun = _functional_at_one_temperature(cfg, "minimize")
    scfg = solver.SolverConfig(
        functional=fun,
        elastic_l=cfg.material.elastic_l,
        tol_residual=cfg.solver["tol"],
        max_iters=cfg.solver["max_iters"],
    )

    bvals = boundary_values(cfg.grid, cfg.boundary)
    base_field = solver.harmonic_interior(solver.QField(cfg.grid, bvals))
    # every datum has a frame, and the flow stays on its line or plane
    axes = tuple(cfg.boundary[key] for key in ("director", "e1", "e2") if key in cfg.boundary)
    if math.prod(n - 2 for n in cfg.grid.shape) >= _LINE_MIN_INTERIOR:
        runs = [solver.minimize_on_subspace(base_field, axes, scfg)]
        base_field = runs[0][0]
    else:
        runs = [solver.minimize(base_field, scfg)]
    interior = ~base_field.boundary_mask
    boundary_norm = float(base_field.norms()[base_field.boundary_mask].max())
    amp = 0.1 * bounds.norm_bound(fun, boundary_norm)[1]

    seeds = range(cfg.solver["seed"], cfg.solver["seed"] + cfg.solver["restarts"])
    for seed in seeds:
        values = base_field.values.copy()
        values[interior] += amp * np.random.default_rng(seed).standard_normal(
            values[interior].shape)
        runs.append(solver.minimize(base_field.with_values(values), scfg))
    runs = [(field, dataclasses.replace(report, seed=seed))
            for seed, (field, report) in zip((None, *seeds), runs)]

    converged_runs = [run for run in runs if run[1].converged]
    pool = converged_runs or runs
    field, report = min(pool, key=lambda run: run[1].final_energy)

    audit = bounds.audit_field(field, fun)

    field_path = out_dir / "field.ldgq"
    solver.write_field(field_path, field)
    _dump_json(out_dir / "solve_report.json", report)
    _dump_json(out_dir / "audit.json", audit)
    print(f"wrote {field_path}")
    print(f"wrote {out_dir / 'solve_report.json'}")
    print(f"wrote {out_dir / 'audit.json'}")
    if not report.converged:
        print(f"error: not converged: {report.stop_reason} after {report.iterations} iterations, "
              f"residual {report.final_residual_maxnorm} > tol {scfg.tol_residual}",
              file=sys.stderr)
    return _audit_exit(audit, report.converged)


def cmd_verify(field_path: str, cfg: RunConfig, out_dir: Path) -> int:
    """Audit a stored field without re-solving."""
    _require(cfg, "material")
    fun = _functional_at_one_temperature(cfg, "verify")
    field = solver.read_field(field_path)
    audit = bounds.audit_field(field, fun)
    text = _dump_json(out_dir / "verify_audit.json", audit)
    sys.stdout.write(text)
    return _audit_exit(audit, converged=True)


def cmd_moments(density_csv: str, level: int, out_dir: Path) -> int:
    """Second-moment oracle for a sampled density."""
    if level < 1:
        raise ConfigError("--level must be >= 1")
    if 6 * (level + 1) ** 2 > _MAX_VALUES:  # the quadrature's 2 (level + 1)^2 unit vectors
        raise ConfigError(f"--level {level} is too large to hold")
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
        "in_physical_triangle": qtensor.in_physical_triangle(q, tol=1e-8),
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
        text = Path(path).read_text(encoding="utf-8-sig")  # a byte-order mark is not a key
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out or os.environ.get("LDGQ_OUT") or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "moments":
            return cmd_moments(args.density, args.level, out_dir)
        cfg = _load_config(args.config)
        if args.command == "verify":
            return cmd_verify(args.field, cfg, out_dir)
        return {"phase": cmd_phase, "triangles": cmd_triangles,
                "minimize": cmd_minimize}[args.command](cfg, out_dir)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (LdgError, OSError, MemoryError) as exc:  # MemoryError: an input too large to hold
        print("error:", str(exc) or "out of memory", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
