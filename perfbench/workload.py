"""One workload process: make the inputs from the seed, then run ops in a closed loop.

Started by ``run.py`` with the thread variables already pinned. An op is one
``ldgq minimize`` (relax workloads) or ``verify``, ``phase``, ``triangles``
and ``moments`` in turn (inspect), each a call of ``ldgq.cli.main`` in this
process; the next op starts when the previous one has been checked. The loop
starts another op only while it would end within ``--seconds`` at the last
op's pace (at least one op). The last line of standard output is one JSON
object:

  {"setup_s": ..., "attempted": n, "failed": k, "metrics": {...}, ...}

Making the inputs and, without tracing, every op run under
``refclock.Sampler``; the metrics are then the end-to-end ones, with op and
set-up times at reference host speed. With
``--trace 1`` no sampler runs, every second op (the 2nd, 4th, ...) records
spans, and after the loop the commands of the other kind of workload run once
untraced and once traced (plus the kernel probes), so that every per-layer
metric is measured. ``--setup-only`` makes the inputs, reports the set-up
time and exits.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from ldgq import cli, solver  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402

COMMANDS = ("minimize", "verify", "phase", "triangles", "moments")
RELAX = tuple(gen.RELAX_N)
PROBE_REPS = 15
# Per-layer metrics that the probes after the loop of a traced run produce.
PROBES = ("solver.init_residual", "solver.energy_eval_ms", "solver.residual_eval_ms")


def command_lines(workload: str, inputs: dict, out_dir: Path) -> list[tuple[str, list[str]]]:
    out = ["--out", str(out_dir)]
    if workload in RELAX:
        return [("minimize", out + ["minimize", "--config", str(inputs["config"])])]
    return [
        ("verify", out + ["verify", str(inputs["field"]), "--config", str(inputs["verify_config"])]),
        ("phase", out + ["phase", "--config", str(inputs["sweep_config"])]),
        ("triangles", out + ["triangles", "--config", str(inputs["sweep_config"])]),
        ("moments", out + ["moments", str(inputs["density"]), "--level", str(gen.MOMENT_LEVEL)]),
    ]


def run_op(lines, tracer, sampler) -> tuple[dict, list[str]]:
    """Run one op's commands; returns wall seconds per command and errors."""
    times, errors = {}, []
    with contextlib.ExitStack() as stack:
        if sampler is not None:
            stack.enter_context(sampler)
        for name, argv in lines:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli." + name, cli.main, argv)
                times[name] = time.perf_counter() - start
            if rc != 0:
                errors.append(f"ldgq {name} exited with {rc}")
    return times, errors


def layer_metrics(summary: dict, op_info: dict) -> dict:
    """Per-layer numbers of one traced op; 0 where the workload lacks the layer."""
    def get(cmd, name, key="s"):
        return summary.get("cli." + cmd, {}).get(name, {}).get(key, 0)

    m = {}
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = get(cmd, "cli." + cmd)
        m[f"cli.{cmd}_self_s"] = get(cmd, "cli." + cmd, "self_s")
    iters = op_info.get("iterations", 0)
    flow_s = get("minimize", "solver.minimize")
    # minimize evaluates the energy of the initial field twice before the first trial step
    trials = max(get("minimize", "bulk.density", "calls") - 2, 0)
    m.update({
        "solver.init_s": get("minimize", "solver.harmonic_interior"),
        "solver.flow_s": flow_s,
        "solver.self_s": get("minimize", "solver.minimize", "self_s"),
        "solver.iterations": iters,
        "solver.trial_steps": trials,
        "solver.accept_ratio": iters / trials if trials else 0.0,
        "solver.dt_final": op_info.get("dt_final", 0.0),
        "solver.ms_per_iteration": 1e3 * flow_s / iters if iters else 0.0,
    })
    for kernel in ("density", "gradient"):
        s, nodes = get("minimize", "bulk." + kernel), get("minimize", "bulk." + kernel, "nodes")
        m[f"bulk.{kernel}_calls"] = get("minimize", "bulk." + kernel, "calls")
        m[f"bulk.{kernel}_s"] = s
        m[f"bulk.{kernel}_ns_per_node"] = 1e9 * s / nodes if nodes else 0.0
    read_mb = op_info.get("read_file_bytes", 0) / 1e6
    write_mb = op_info.get("write_file_bytes", 0) / 1e6
    read_s = get("verify", "solver.read_field")
    write_s = get("minimize", "solver.write_field")
    load_s = get("moments", "moments.load_density_csv")
    m.update({
        "solver.read_s": read_s,
        "solver.read_mb_per_s": read_mb / read_s if read_s else 0.0,
        "solver.read_file_mb": read_mb,
        "solver.read_field_mb": op_info.get("read_field_bytes", 0) / 1e6,
        "solver.write_s": write_s,
        "solver.write_mb_per_s": write_mb / write_s if write_s else 0.0,
        "solver.write_file_mb": write_mb,
        "solver.field_mb": op_info.get("field_bytes", 0) / 1e6,
        "bounds.audit_s": get("minimize", "bounds.audit_field"),
        "bounds.verify_audit_s": get("verify", "bounds.audit_field"),
        "bounds.triangles_s": get("triangles", "bounds.triangle_report"),
        "bulk.phase_s": get("phase", "bulk.stationary_scalars"),
        "moments.quadrature_s": get("moments", "moments.build_quadrature"),
        "moments.load_s": load_s,
        "moments.samples_per_s": gen.MOMENT_SAMPLES / load_s if load_s else 0.0,
        "moments.q_s": get("moments", "moments.q_from_psi"),
    })
    return m


def probe_kernels(inputs: dict, out_dir: Path) -> dict:
    """Time the public discrete_energy and el_residual on the final field."""
    cfg = cli.parse_config(Path(inputs["config"]).read_text())
    scfg = solver.SolverConfig(functional=cli.build_functional(cfg, cfg.temperature),
                               elastic_l=cfg.material.elastic_l)
    values, _ = oracle.read_field(out_dir / "field.ldgq")
    field = solver.QField(cfg.grid, values)
    out = {}
    for name, fn in (("solver.energy_eval_ms", solver.discrete_energy),
                     ("solver.residual_eval_ms", solver.el_residual)):
        samples = []
        for _ in range(PROBE_REPS):
            start = time.perf_counter()
            fn(field, scfg)
            samples.append(time.perf_counter() - start)
        out[name] = 1e3 * statistics.median(samples)
    return out


def init_residual(tracer: tracing.Tracer) -> float:
    """Max node norm of the 7-point Laplacian of the initializer's output."""
    field = tracer.last_result["solver.harmonic_interior"]
    return oracle.max_node_norm(oracle.interior_laplacian(field.values, field.grid.hx))


def run_checked(kind: str, index: int, lines, out_dir: Path, check, tracer=None,
                sampler=None) -> dict:
    """Run one op, traced when ``tracer`` is given, and check its outputs."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    op = {"traced": tracer is not None, "times": {}, "errors": []}
    try:
        if tracer is not None:
            tracer.op = index
            tracer.install()
        try:
            op["times"], op["errors"] = run_op(lines, tracer, sampler)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if sampler is not None:
            op["wall_s"] = sum(op["times"].values())
            op["ref_s"] = sampler.reference_s(op["wall_s"])
            op["samples"] = len(sampler.samples)
        op["errors"] += check(out_dir)
        op["digests"] = oracle.digests(kind, out_dir)
    except Exception:  # an op that crashes counts as failed; keep measuring
        traceback.print_exc()
        op["errors"].append("exception")
    return op


def check_repeats(ops: list) -> None:
    """Every op's outputs must be byte-identical to the first op's, traced or not."""
    first = next((op["digests"] for op in ops if "digests" in op), None)
    for op in ops:
        if op.get("digests", first) != first:
            op["errors"].append("outputs differ from the first op's")


def relax_info(out_dir: Path, workload: str) -> dict:
    report = json.loads((out_dir / "solve_report.json").read_text())
    return {
        "iterations": report["iterations"],
        "dt_final": report["dt_final"],
        "write_file_bytes": (out_dir / "field.ldgq").stat().st_size,
        "field_bytes": gen.RELAX_N[workload] ** 3 * 5 * 8,
    }


def inspect_info(inputs: dict) -> dict:
    return {"read_file_bytes": inputs["field"].stat().st_size,
            "read_field_bytes": gen.VERIFY_N**3 * 5 * 8}


def checker(kind: str, seed: int):
    if kind in RELAX:
        return lambda d: oracle.check_relax(kind, d)
    field = gen.verify_field(seed)
    return lambda d: oracle.check_inspect(seed, field, d)


def add_layers(op: dict, kind: str, tracer: tracing.Tracer, index: int, inputs: dict,
               out_dir: Path) -> None:
    """Per-layer numbers of a traced op that passed its checks."""
    if "digests" in op:
        info = relax_info(out_dir, kind) if kind in RELAX else inspect_info(inputs)
        op["layers"] = layer_metrics(tracing.op_summary(tracer.spans, index), info)


def measure(args, inputs: dict, work: Path, clock: refclock.Sampler) -> list:
    """The closed loop; a traced run alternates untraced and traced ops."""
    out_dir = work / "out"
    lines = command_lines(args.workload, inputs, out_dir)
    check = checker(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    sampler = None if args.trace else clock
    ops = []
    begin = time.perf_counter()
    last = 0.0
    while not ops or time.perf_counter() - begin + last <= args.seconds or (tracer and len(ops) < 2):
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        start = time.perf_counter()
        op = run_checked(args.workload, index, lines, out_dir, check,
                         tracer if traced else None, sampler)
        last = time.perf_counter() - start
        if traced:
            add_layers(op, args.workload, tracer, index, inputs, out_dir)
        ops.append(op)
    check_repeats(ops)
    if tracer is None:
        return ops
    if args.workload in RELAX:
        ops[-1]["probes"] = relax_probes(tracer, inputs, out_dir)
        ops += probe("inspect", args.seed, work, tracer, len(ops))
    else:
        ops += probe("relax-fine", args.seed, work, tracer, len(ops))
    tracer.write(work.parent / f"spans-{args.workload}.jsonl")
    return ops


def relax_probes(tracer: tracing.Tracer, inputs: dict, out_dir: Path) -> dict:
    return {"solver.init_residual": init_residual(tracer), **probe_kernels(inputs, out_dir)}


def probe(kind: str, seed: int, work: Path, tracer: tracing.Tracer, first: int) -> list:
    """The other kind of workload's commands once untraced and once traced, for their layers.

    A relax run probes the inspect commands (verify, phase, triangles,
    moments); an inspect run probes relax-fine, with the kernel probes on its
    final field. Checked like every op.
    """
    inputs = gen.write_inputs(kind, seed, work / f"{kind}-inputs")
    out_dir = work / f"{kind}-out"
    lines = command_lines(kind, inputs, out_dir)
    check = checker(kind, seed)
    ops = [run_checked(kind, first + i, lines, out_dir, check, tracer if i else None)
           for i in range(2)]
    check_repeats(ops)
    add_layers(ops[1], kind, tracer, first + 1, inputs, out_dir)
    if kind in RELAX and "digests" in ops[1]:
        ops[1]["probes"] = relax_probes(tracer, inputs, out_dir)
    return ops


def end_to_end(ops: list) -> dict:
    """Metrics of the untraced run; ``setup_s`` is added by run.py."""
    ok = sum(not op["errors"] for op in ops)
    return {
        "op_ref_s": statistics.median([op["ref_s"] for op in ops if "ref_s" in op] or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok / len(ops),
    }


def per_layer(ops: list) -> dict:
    """Per metric, the median over the traced ops that ran its layer; the probes; the overhead."""
    layered = [op["layers"] for op in ops if "layers" in op]
    metrics = {}
    for name in layer_metrics({}, {}):
        values = [m[name] for m in layered if m[name]]
        metrics[name] = statistics.median(values) if values else 0.0
    metrics.update(dict.fromkeys(PROBES, 0.0))
    for op in ops:
        metrics.update(op.get("probes", {}))
    for cmd in COMMANDS:
        traced = [op["times"][cmd] for op in ops if op["traced"] and cmd in op["times"]]
        plain = [op["times"][cmd] for op in ops if not op["traced"] and cmd in op["times"]]
        if traced and plain:
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        else:
            overhead = 0.0
        metrics[f"trace.overhead_frac.{cmd}"] = overhead
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory for this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if ROOT not in Path(cli.__file__).resolve().parents:
        print(f"error: imported ldgq from {cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = Path(args.work)
    start = time.perf_counter()
    clock = refclock.Sampler(args.workload)
    clock_s = time.perf_counter() - start  # the benchmark's, not part of set-up
    with clock:
        inputs = gen.write_inputs(args.workload, args.seed, work / "inputs")
    setup_wall_s = time.perf_counter() - START - clock_s
    # The kernel's samples while the inputs are made and a burst right after
    # stand for the host's speed during the whole set-up, imports included.
    setup_s = (setup_wall_s - sum(clock.samples)) * clock.speed_factor(clock.samples + clock.burst())
    if args.setup_only:
        shutil.rmtree(work)
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    ops = measure(args, inputs, work, clock)
    shutil.rmtree(work)
    for index, op in enumerate(ops):
        for err in op["errors"]:
            print(f"op {index}: {err}", file=sys.stderr)
    failed = sum(bool(op["errors"]) for op in ops)
    result = {
        "ops": ops,
        "metrics": per_layer(ops) if args.trace else end_to_end(ops),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "attempted": len(ops),
        "failed": failed,
        "correct": failed == 0,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
