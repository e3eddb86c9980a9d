"""What the benchmark under perfbench/ uses of the program, checked without running it.

The benchmark's tracer replaces module attributes and subclasses the bulk
functionals, and its oracle reads keys of the written reports. A rename that
breaks either would only show in a traced benchmark run, so these tests read
``perfbench/tracing.py`` and ``perfbench/oracle.py`` and check that every name
they rely on still exists. They also parse the configs ``perfbench/gen.py``
writes, so a stricter config rule cannot fail every benchmark op unseen.
"""

import dataclasses
import importlib.util
import re
from pathlib import Path

from ldgq import cli, solver
from ldgq.bounds import BoundAudit
from ldgq.bulk import BulkFunctional
from ldgq.solver import SolveReport

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    wrapped = _perfbench("tracing").WRAPPED
    assert wrapped
    for module, attr, _name in wrapped:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(cli.build_functional)
    # the tracer's timing subclass overrides these two methods
    assert callable(BulkFunctional.density) and callable(BulkFunctional.gradient)


def test_every_report_key_the_oracle_reads_exists():
    text = (PERFBENCH / "oracle.py").read_text() + (PERFBENCH / "workload.py").read_text()
    read = {(obj, key) for obj, key in re.findall(r"\b(audit|report)\[[\"'](\w+)[\"']\]", text)}
    audit_keys = {key for obj, key in read if obj == "audit"}
    report_keys = {key for obj, key in read if obj == "report"}
    # the pattern must still find what the oracle is known to read
    assert {"slack", "regime", "satisfied", "max_interior_norm"} <= audit_keys
    assert {"converged", "final_residual_maxnorm", "final_energy", "iterations",
            "dt_final"} <= report_keys
    assert audit_keys <= {f.name for f in dataclasses.fields(BoundAudit)}
    assert report_keys <= {f.name for f in dataclasses.fields(SolveReport)}


def test_the_benchmark_inputs_parse():
    # only the perfbench self-tests, outside tier-1, would otherwise see a parse
    # rule that rejects them, and then every benchmark op fails
    gen = _perfbench("gen")
    for text in (gen.relax33_config(0), gen.relax_fine_config(0), gen.verify_config()):
        cfg = cli.parse_config(text)
        assert isinstance(cli.build_functional(cfg, cfg.temperature), BulkFunctional)
    sweep = cli.parse_config(gen.sweep_config())
    assert len(cli._temperatures(sweep)) == gen.SWEEP_ROWS


def test_minimize_runs_the_traced_layers_through_their_module_attributes(tmp_path, monkeypatch):
    # The tracer replaces solver.harmonic_interior and solver.minimize as module
    # attributes, so a benchmark minimize must still call both through them, and
    # workload.init_residual reads the harmonic start from the tracer's last result.
    # The benchmark fails an op whose traced and untraced outputs differ, and the
    # director line certifies its end through solver.minimize: one span per run.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workload.py imports its siblings
    workload = _perfbench("workload")
    for name, text in (("relax-33", workload.gen.relax33_config(0)),
                       ("relax-fine", workload.gen.relax_fine_config(0))):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        tracer = workload.tracing.Tracer()
        tracer.install()
        try:
            rc = cli.main(["--out", str(tmp_path / name), "minimize", "--config", str(config)])
        finally:
            tracer.uninstall()
        assert rc == 0
        spans = [span[0] for span in tracer.spans]
        assert spans.count("solver.harmonic_interior") == 1
        assert spans.count("solver.minimize") == 1
        start = tracer.last_result["solver.harmonic_interior"]
        assert start.grid == cli.parse_config(text).grid
        assert workload.init_residual(tracer) < 1e-9
        untraced = tmp_path / f"{name}-untraced"
        assert cli.main(["--out", str(untraced), "minimize", "--config", str(config)]) == 0
        traced = workload.oracle.digests(name, tmp_path / name)
        assert set(traced) == {"field.ldgq", "solve_report.json", "audit.json"}
        assert workload.oracle.digests(name, untraced) == traced


def test_relax_fine_keeps_the_five_component_path(tmp_path, monkeypatch):
    # The benchmark's relax-fine op (17^3) runs under refclock's 25 ms sampling period
    # once it relaxes on the director line, and an op without a sample counts as
    # failed (ROADMAP item 1). So relax-fine stays under cli._LINE_MIN_INTERIOR, and
    # relax-33 relaxes on the line once. This test goes away with ROADMAP item 6 (c),
    # which removes the threshold after item 1 mends short ops.
    gen = _perfbench("gen")
    calls = []
    on_line = solver.minimize_on_director_line

    def counted(*args, **kwargs):
        calls.append(args[0].grid.shape)
        return on_line(*args, **kwargs)

    monkeypatch.setattr(solver, "minimize_on_director_line", counted)
    for name, text, expected in (("relax-fine", gen.relax_fine_config(0), []),
                                 ("relax-33", gen.relax33_config(0), [(33, 33, 33)])):
        config = tmp_path / f"{name}.cfg"
        config.write_text(text)
        calls.clear()
        assert cli.main(["--out", str(tmp_path / name), "minimize", "--config", str(config)]) == 0
        assert calls == expected, name
