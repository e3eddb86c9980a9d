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

from ldgq import cli
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
