"""Benchmark of the ldgq command line, end to end and per layer.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload relax-33 --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):
  relax-33    ldgq minimize: quartic, 33^3 grid, h = 1
  relax-fine  ldgq minimize: polynomial with a sextic term, 17^3 grid, h = 0.25
  inspect     ldgq verify, phase, triangles and moments

This process imports no numpy. It pins the BLAS and OpenMP thread variables,
runs ``workload.py`` in fresh processes (set-up only, several times, then the
measured loop) and prints, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. The
full record (environment, set-up samples, every op) is written to
``.perfbench-work/result-<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SPEC = ROOT / "BENCHMARK.json"  # declares the workloads and every metric's unit
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed in this many fresh processes (the measured one included).
SETUP_SAMPLES = 3
# Every run ends within this many seconds or fails.
RUN_LIMIT_S = 175.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def child(args, work: Path, env: dict, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    spec = json.loads(SPEC.read_text())
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "ldgq" / "cli.py").is_file():
        print(f"error: no ldgq source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    threads = "1"  # one thread of work; nproc is the upper limit
    env = dict(os.environ, **{var: threads for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # workload.py puts this checkout's src/ first
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                setup.append(child(args, WORK / f"{tag}-setup{i}", env, deadline, setup_only=True))
        result = child(args, WORK / tag, env, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(result)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(out["setup_s"] for out in setup)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "threads": {var: threads for var in THREAD_VARS},
        "python": result["python"], "numpy": result["numpy"], "platform": platform.platform(),
        "setup_samples_s": [out["setup_s"] for out in setup],
        "setup_wall_samples_s": [out["setup_wall_s"] for out in setup],
        "metrics": metrics, "ops": result["ops"],
    }
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("perfbench env: " + json.dumps({k: record[k] for k in (
        "git_sha", "nproc", "python", "numpy", "platform")} | {"threads": threads}))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
