"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import json
import re
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from ldgq import bulk, cli, solver  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", [*gen.RELAX_N, "inspect"])
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    first = gen.write_inputs(name, 3, tmp_path / "a")
    again = gen.write_inputs(name, 3, tmp_path / "b")
    other = gen.write_inputs(name, 4, tmp_path / "c")
    assert first.keys() == again.keys() == other.keys()
    for role in first:
        assert first[role].read_bytes() == again[role].read_bytes()
    seeded = [role for role in first if first[role].read_bytes() != other[role].read_bytes()]
    assert seeded, "the seed must change the inputs"


def test_metric_names_are_valid_and_match_what_the_runs_emit():
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    for name in e2e + layers:
        assert NAME.fullmatch(name), name
    assert len(set(e2e + layers)) == len(e2e) + len(layers)
    op = {"traced": False, "times": {"minimize": 1.0}, "errors": [], "ref_s": 1.0}
    assert set(workload.end_to_end([op])) | {"setup_s"} == set(e2e)
    assert set(workload.per_layer([op])) == set(layers)


def test_generated_inputs_meet_the_workload_design(tmp_path):
    field = gen.verify_field(0)
    assert oracle.max_node_norm(field) <= 0.9 * gen.gamma(gen.T_LOW) * (1 + 1e-12)
    assert abs(gen.s_plus(gen.T_LOW) - 1.0808) < 1e-4
    assert len(cli._temperatures(cli.parse_config(gen.sweep_config()))) == gen.SWEEP_ROWS
    cfg = cli.parse_config(gen.relax_fine_config(0))
    assert isinstance(cli.build_functional(cfg, cfg.temperature), bulk.Polynomial)


FUNCTIONALS = [
    bulk.Quartic(bulk.Material(gen.ALPHA, gen.B, gen.C, gen.T_STAR, 1.0), gen.T_LOW),
    bulk.Polynomial(gen.POLY_A2, gen.POLY_TERMS),
    bulk.GLPenalized(bulk.Material(gen.ALPHA, gen.B, gen.C, gen.T_STAR, 1.0), gen.T_LOW, 0.1),
]


@pytest.mark.parametrize("fun", FUNCTIONALS, ids=lambda f: type(f).__name__)
@settings(max_examples=40, deadline=None)
@given(coeffs=arrays(np.float64, st.tuples(st.integers(1, 6), st.just(5)),
                     elements=st.floats(-2.0, 2.0, allow_nan=False)))
def test_timing_subclass_returns_identical_arrays(fun, coeffs):
    tracer = tracing.Tracer()
    timed = tracer.timed(fun)
    assert isinstance(timed, type(fun)) and vars(timed) == vars(fun)
    np.testing.assert_array_equal(timed.density(coeffs), fun.density(coeffs))
    np.testing.assert_array_equal(timed.gradient(coeffs), fun.gradient(coeffs))
    assert [s[0] for s in tracer.spans] == ["bulk.density", "bulk.gradient"]
    assert all(s[5] == coeffs.shape[0] for s in tracer.spans)


def _run(argv, tracer=None):
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        tracer.install()
        try:
            return tracer.call("cli.run", cli.main, argv)
        finally:
            tracer.uninstall()


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    text = gen.relax33_config(0).replace("= 33", "= 9")
    config = tmp_path / "small.cfg"
    config.write_text(text)
    names = ("field.ldgq", "solve_report.json", "audit.json", "verify_audit.json")
    outputs = []
    originals = (solver.minimize, cli.build_functional)
    for tracer in (None, tracing.Tracer()):
        out = tmp_path / ("traced" if tracer else "plain")
        assert _run(["--out", str(out), "minimize", "--config", str(config)], tracer) == 0
        assert _run(["--out", str(out), "verify", str(out / "field.ldgq"),
                     "--config", str(config)], tracer) == 0
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]
    assert (solver.minimize, cli.build_functional) == originals
    summary = tracing.op_summary(tracer.spans, tracer.op)["cli.run"]
    for name in ("solver.harmonic_interior", "solver.minimize", "solver.write_field",
                 "solver.read_field", "bounds.audit_field", "bulk.density", "bulk.gradient"):
        assert summary[name]["calls"] >= 1, name
    root = summary["cli.run"]
    children = sum(summary[n]["s"] for n in ("solver.harmonic_interior", "solver.minimize",
                                             "solver.write_field", "solver.read_field",
                                             "bounds.audit_field"))
    assert root["self_s"] == pytest.approx(root["s"] - children, abs=1e-9)


def test_oracle_residual_matches_the_program_on_a_random_field():
    rng = np.random.default_rng(0)
    grid = solver.Grid3(6, 5, 7, 0.5, 0.5, 0.5)
    values = 0.3 * rng.standard_normal(grid.shape + (5,))
    for name, fun in (("relax-33", FUNCTIONALS[0]), ("relax-fine", FUNCTIONALS[1])):
        res = solver.el_residual(solver.QField(grid, values),
                                 solver.SolverConfig(functional=fun, elastic_l=1.0))
        want = oracle.max_node_norm(res)
        assert oracle.el_residual_max(name, values, 0.5) == pytest.approx(want, rel=1e-12)


def test_sampler_samples_during_the_op_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = refclock.Sampler("relax-fine")
    with sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
    wall = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    busy = sum(sampler.samples)
    assert sampler.reference_s(wall) == pytest.approx(
        (wall - busy) * sampler.speed_factor(sampler.samples))


def test_sampled_and_unsampled_outputs_are_identical(tmp_path):
    config = tmp_path / "small.cfg"
    config.write_text(gen.relax_fine_config(0).replace("= 17", "= 9"))
    outputs = []
    for sampler in (None, refclock.Sampler("relax-fine")):
        out = tmp_path / ("sampled" if sampler else "plain")
        lines = [("minimize", ["--out", str(out), "minimize", "--config", str(config)])]
        times, errors = workload.run_op(lines, None, sampler)
        assert not errors
        outputs.append([(out / name).read_bytes() for name in oracle.OUTPUTS["relax-fine"]])
    assert sampler.samples, "the op must have been sampled"
    assert outputs[0] == outputs[1]
