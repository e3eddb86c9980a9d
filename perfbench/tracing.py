"""Spans recorded from outside the program, around the calls into each layer.

``Tracer.install`` replaces the public functions that the CLI commands call
with wrappers that record a span per call, and makes ``cli.build_functional``
return a timing subclass of the functional it built. Being a subclass keeps
the ``isinstance`` dispatch in ``bounds.audit_field`` working, and the
subclass calls the inherited methods unchanged, so outputs stay byte-identical.
``uninstall`` puts the original functions back. Nothing under ``src/`` is
edited.

A span is (name, start, end, parent index, op id, nodes): ``nodes`` is the
number of lattice nodes a bulk kernel call evaluated and 0 elsewhere.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from time import perf_counter

import numpy as np
from ldgq import bounds, bulk, cli, moments, solver

# (module, function name, span name). Each is called by a CLI command through
# its module attribute, so replacing the attribute catches every such call.
WRAPPED = (
    (solver, "harmonic_interior", "solver.harmonic_interior"),
    (solver, "minimize", "solver.minimize"),
    (solver, "write_field", "solver.write_field"),
    (solver, "read_field", "solver.read_field"),
    (bounds, "audit_field", "bounds.audit_field"),
    (bounds, "triangle_report", "bounds.triangle_report"),
    (bulk, "stationary_scalars", "bulk.stationary_scalars"),
    (moments, "build_quadrature", "moments.build_quadrature"),
    (moments, "load_density_csv", "moments.load_density_csv"),
    (moments, "q_from_psi", "moments.q_from_psi"),
)


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list = []
        self._timed_classes: dict[type, type] = {}
        self.last_result: dict = {}  # span name -> return value of its latest call

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float, nodes: int = 0) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.op, nodes)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx, parent = self._open()
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(idx, parent, name, start)
        self.last_result[name] = out
        return out

    def wrap(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def timed_class(self, cls: type) -> type:
        """Subclass of a BulkFunctional class whose density and gradient record spans."""
        if cls not in self._timed_classes:
            def timed(name, method):
                def call(fun, coeffs):
                    idx, parent = self._open()
                    start = perf_counter()
                    try:
                        return method(fun, coeffs)
                    finally:
                        self._close(idx, parent, name, start, np.size(coeffs) // 5)
                return call

            self._timed_classes[cls] = type("Timed" + cls.__name__, (cls,), {
                "density": timed("bulk.density", cls.density),
                "gradient": timed("bulk.gradient", cls.gradient),
            })
        return self._timed_classes[cls]

    def timed(self, fun):
        """Copy of a functional whose class is the timing subclass of its own."""
        timed = copy.copy(fun)
        # the functionals are frozen dataclasses, so bypass their __setattr__
        object.__setattr__(timed, "__class__", self.timed_class(type(fun)))
        return timed

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, self.wrap(name, getattr(module, attr)))
        build = cli.build_functional
        self._saved.append((cli, "build_functional", build))
        cli.build_functional = lambda cfg, temperature: self.timed(build(cfg, temperature))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path: Path) -> None:
        """Write every span, one JSON list per line."""
        with open(path, "w") as fh:
            fh.write('["name", "start", "end", "parent", "op", "nodes"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def op_summary(spans: list, op: int) -> dict:
    """Totals per command span and span name for one op.

    Returns {root span name: {span name: {"calls", "s", "self_s", "nodes"}}},
    where the root of a span is its outermost ancestor (the ``cli.<command>``
    span). Self time is a span's duration minus that of its direct children;
    spans of one single-threaded op nest strictly, so children never overlap.
    """
    child_time: dict[int, float] = {}
    root: dict[int, str] = {}
    for idx, (name, start, end, parent, span_op, _nodes) in enumerate(spans):
        if span_op != op:
            continue
        root[idx] = root[parent] if parent >= 0 else name
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + end - start
    out: dict[str, dict] = {}
    for idx, cmd in root.items():
        name, start, end, _parent, _op, nodes = spans[idx]
        agg = out.setdefault(cmd, {}).setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "nodes": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time.get(idx, 0.0)
        agg["nodes"] += nodes
    return out
