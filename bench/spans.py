"""Span recording from outside the program.

The benchmark may not edit ``src/``, so layer boundaries are observed by
rebinding the public functions named in :data:`SPAN_TABLE` to recording
wrappers for the duration of a traced run.  A span carries its name,
start, end, parent and the id of the benchmark op that caused it; spans
live in memory and are written as Chrome-trace JSON when the workload
ends.  A layer's *self time* is its span's duration minus the part its
child spans cover.

A target that no longer resolves is reported as ``absent`` instead of
raising, so a later refactor shows up as a row going absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import types

# (layer metric prefix, span name, "module:attr" or "module:Class.attr", mode)
# mode "span" records a timed span; "count" only counts calls (for
# functions called tens of thousands of times per rep, where a span per
# call would measure the recorder).
SPAN_TABLE = [
    # core: the front end, dataflows -> ADG
    ("core", "core.build_dataflows",
     "repro.service.spec:DesignRequest.build_dataflows", "span"),
    ("core", "core.build_adg", "repro.core.frontend:build_adg", "span"),
    ("core", "core.reuse_solutions",
     "repro.core.interconnect:find_reuse_solutions", "span"),
    ("core", "core.reuse_solutions",
     "repro.core.interconnect:build_reuse_edges", "span"),
    ("core", "core.mst",
     "repro.core.mst:spanning_forest_with_memory_root", "span"),
    ("core", "core.fusion", "repro.core.fusion:partition_chains", "span"),
    ("core", "core.fusion",
     "repro.core.fusion:plan_direct_interconnects", "span"),
    ("core", "core.fusion", "repro.core.fusion:condensed_delay_tree", "span"),
    ("core", "core.memory", "repro.core.memory_analysis:analyze_banks",
     "span"),
    ("core", "core.memory", "repro.core.memory_analysis:fuse_layouts",
     "span"),
    # backend: primitive DAG + the section-V passes
    ("backend", "backend.generate", "repro.backend.codegen:generate", "span"),
    ("backend", "backend.run_backend_self", "repro.backend.passes:run_backend",
     "span"),
    ("backend", "backend.bitwidth", "repro.backend.passes:infer_bitwidths",
     "span"),
    ("backend", "backend.reduction",
     "repro.backend.reduction:extract_reduction_trees", "span"),
    ("backend", "backend.rewiring", "repro.backend.rewiring:run_rewiring",
     "span"),
    ("backend", "backend.rewiring",
     "repro.backend.rewiring:rewire_broadcasts", "span"),
    ("backend", "backend.delay_match",
     "repro.backend.delay_matching:delay_match", "span"),
    ("backend", "backend.pin_reuse", "repro.backend.pin_reuse:reuse_pins",
     "span"),
    ("backend", "backend.power_gate", "repro.backend.passes:power_gate",
     "span"),
    ("backend", "backend.liveness",
     "repro.backend.codegen:compute_liveness", "span"),
    # backends: the emitter families
    ("backends", "backends.verilog_emit",
     "repro.backends.verilog:VerilogFamily.emit", "span"),
    ("backends", "backends.hls_c_emit",
     "repro.backends.hls_c:HlsCFamily.emit", "span"),
    # sim: cycle simulator and the analytic perf model
    ("sim", "sim.golden_vectors", "repro.sim.dag_sim:golden_vectors", "span"),
    ("sim", "sim.compile_program", "repro.sim.dag_sim:Simulator.__init__",
     "span"),
    ("sim", "sim.run", "repro.sim.dag_sim:Simulator.run", "span"),
    ("sim", "sim.evaluate_model", "repro.sim.perf_model:evaluate_model",
     "span"),
    ("sim", "sim.evaluate_layer", "repro.sim.perf_model:evaluate_layer",
     "count"),
    # serialize / report
    ("serialize", "serialize.to_dict", "repro.serialize:design_to_dict",
     "span"),
    ("serialize", "serialize.from_dict", "repro.serialize:design_from_dict",
     "span"),
    ("serialize", "serialize.canonical_dumps",
     "repro.serialize:canonical_dumps", "span"),
    ("report", "report.summary", "repro.report:design_summary", "span"),
    # service
    ("service.spec", "spec.execute_self", "repro.service.spec:execute_request",
     "span"),
    ("service.engine", "engine.generate_many",
     "repro.service.engine:BatchEngine.generate_many", "span"),
    ("service.engine", "engine.evaluate_archs",
     "repro.service.engine:evaluate_archs", "span"),
    ("service.client", "client.generate",
     "repro.service.client:ServiceClient.generate", "span"),
    # dse
    ("dse", "dse.run_search", "repro.dse.strategies:run_search", "span"),
]

# Every module whose namespace may hold an alias of a table target
# (``from .x import f`` binds ``f`` in the importer); all are imported
# before patching so each alias is found and rebound.
_PRELOAD = (
    "repro", "repro.cli", "repro.core.frontend", "repro.backend",
    "repro.backend.passes", "repro.backend.rewiring", "repro.backends",
    "repro.backends.hls_c", "repro.sim.dag_sim", "repro.sim.step_program",
    "repro.sim.perf_model", "repro.serialize", "repro.report",
    "repro.service", "repro.service.spec", "repro.service.engine",
    "repro.service.cache", "repro.service.client", "repro.dse",
    "repro.dse.strategies", "repro.mapper", "repro.models.zoo",
    "repro.arch.accelerator",
)


class Recorder:
    """In-memory span store with one parent stack per thread."""

    def __init__(self):
        self.spans: list[list] = []   # [name, t0_ns, t1_ns, parent, op, tid]
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: str | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        span = [name, 0, 0, parent, op, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter_ns()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    # -- analysis ----------------------------------------------------------

    def self_times_ms(self) -> tuple[dict[str, float], dict[str, int]]:
        """``(self ms by span name, calls by span name)`` of everything
        recorded since the last :meth:`reset`."""
        spans = self.spans
        self_ns = [s[2] - s[1] for s in spans]
        for span in spans:
            if span[3] >= 0:
                self_ns[span[3]] -= span[2] - span[1]
        total: dict[str, float] = {}
        calls: dict[str, int] = dict(self.counts)
        for span, ns in zip(spans, self_ns):
            total[span[0]] = total.get(span[0], 0.0) + ns / 1e6
            calls[span[0]] = calls.get(span[0], 0) + 1
        return total, calls

    def write_chrome_trace(self, path: str) -> int:
        """Dump the current spans as Chrome-trace JSON (load in
        ``chrome://tracing`` / Perfetto); returns the event count."""
        pid = os.getpid()
        events = [{"name": s[0], "ph": "X", "pid": pid, "tid": s[5],
                   "ts": s[1] / 1e3, "dur": (s[2] - s[1]) / 1e3,
                   "args": {"op": s[4], "parent": s[3], "id": i}}
                  for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return len(events)


def _resolve(target: str):
    """``(owner object, attribute name, original callable)``."""
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _wrap(orig, name: str, mode: str, recorder: Recorder):
    if mode == "count":
        @functools.wraps(orig)
        def counted(*args, **kwargs):
            recorder.count(name)
            return orig(*args, **kwargs)
        return counted

    @functools.wraps(orig)
    def spanned(*args, **kwargs):
        index = recorder.begin(name)
        try:
            return orig(*args, **kwargs)
        finally:
            recorder.end(index)
    return spanned


class Tracing:
    """The :data:`SPAN_TABLE` wrappers, resolved once at construction
    and bound/unbound by :meth:`install`/:meth:`remove`."""

    def __init__(self, recorder: Recorder):
        self.absent: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        for module_name in _PRELOAD:
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass  # a vanished module surfaces as absent targets below
        for _layer, name, target, mode in SPAN_TABLE:
            try:
                owner, attr, orig = _resolve(target)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapper = _wrap(orig, name, mode, recorder)
            self._bindings.append((owner, attr, orig, wrapper))
            if isinstance(owner, types.ModuleType):
                # module-level function: rebind every ``from x import f``
                # alias too, or callers keep the unwrapped original
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("repro"):
                        continue
                    for alias, value in list(vars(mod).items()):
                        if value is orig and (mod, alias) != (owner, attr):
                            self._bindings.append((mod, alias, orig,
                                                   wrapper))

    def install(self) -> None:
        for owner, attr, _orig, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, orig, _wrapper in self._bindings:
            setattr(owner, attr, orig)
