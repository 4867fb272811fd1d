"""Cycle-accurate functional simulation of a generated design.

Every primitive of the DAG is executed every cycle, honoring node
latencies, per-edge pipeline registers inserted by delay matching, and
per-dataflow programmed FIFO depths.  A generated GEMM/Conv/MTTKRP design
must produce bit-exact results against the numpy reference — this closes
the loop over the *entire* flow: interconnect solving, MST planning,
memory banking, codegen, and every backend pass.

Two execution engines share one graph preparation:

* the **vectorized step program** (:mod:`.step_program`, the default):
  compiled once at construction — pass-through primitives become
  aliases, address generators and dynamic muxes read *static streams*
  (the counter's timestamp series unranked once per program), and the
  remaining primitives run as levelized steps of whole-series numpy
  operations over value/valid matrices;
* the **reference interpreter** (``Simulator(..., reference=True)``):
  the original per-cycle Python loop, kept as the oracle the vectorized
  engine is property-tested bit-exact against (outputs, cycle count,
  toggle counts, memory access counters).

A design the vectorized engine cannot reproduce exactly runs on the
interpreter, never silently: the reason (memory feedback on a tensor, a
non-accumulating commit, a timestamp or address not driven by a counter
or address generator, or inputs that could overflow int64) is logged as
one ``repro.sim`` WARNING and
kept in :attr:`Simulator.fallback`, and :attr:`Simulator.engine` names
the engine that ran.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..backend.codegen import Design, DataflowConfig

__all__ = ["Simulator", "make_input",
           "canonical_stimulus", "golden_vectors", "CANONICAL_STIMULUS"]

_LOG = logging.getLogger("repro.sim")

#: tag of the canonical testbench stimulus produced by
#: :func:`canonical_stimulus`; hashed into ``DesignRequest.sim_key`` so
#: cached golden vectors can never be served for a different stimulus.
#: CHANGING :func:`canonical_stimulus` REQUIRES CHANGING THIS TAG.
CANONICAL_STIMULUS = "default_rng(0):lo0:hi8"


@dataclass
class SimResult:
    """Outputs plus activity counters for the energy model."""

    outputs: dict[str, np.ndarray]
    cycles: int
    toggles: dict[int, int]  # node id -> number of value changes
    mem_reads: dict[str, int]
    mem_writes: dict[str, int]


class Simulator:
    """Executes one dataflow configuration of a design cycle by cycle.

    ``reference=True`` forces the per-cycle Python interpreter (the
    oracle); the default compiles the schedule into a vectorized
    :class:`~repro.sim.step_program.StepProgram` at construction and
    falls back to the interpreter only for designs (or inputs) the
    vectorization cannot honour bit-exactly.

    ``engine`` is ``"vector"`` or ``"reference"``: the engine the last
    :meth:`run` used, or before any run the one it will try.
    ``fallback`` is the reason a fallback happened (None when the
    vector engine runs or the interpreter was asked for).
    """

    def __init__(self, design: Design, dataflow: str,
                 reference: bool = False):
        self.design = design
        self.dag = design.dag
        self.cfg: DataflowConfig = design.configs[dataflow]
        self.dataflow = dataflow
        self.reference = reference
        self.rt = self.cfg.dataflow.rt

        cfg = self.cfg
        dag = self.dag

        def active_edge(e) -> bool:
            return e.uid in cfg.active_edges

        self.order = dag.topo_order(sequential_break=False,
                                    edge_filter=active_edge)
        self.order = [nid for nid in self.order if nid in cfg.active_nodes]
        # Pre-resolve inputs per node: list of (src, total_delay) per pin.
        self.inputs: dict[int, dict[int, tuple[int, int]]] = {}
        for e in dag.edges:
            if not active_edge(e):
                continue
            if e.dst not in cfg.active_nodes or e.src not in cfg.active_nodes:
                continue
            self.inputs.setdefault(e.dst, {})[e.dst_pin] = (e.src, e.el)

        # Total pipeline depth bound for the run length.
        self.pipeline_bound = self._longest_path()

        # Precompile the vectorized step program (input/latency/FIFO
        # index tables are all static per configuration).
        self._program = None
        self.engine = "reference"
        self.fallback: str | None = None
        if not reference:
            from .step_program import StepProgram

            program = StepProgram(self)
            if program.supported:
                self._program = program
                self.engine = "vector"
            else:
                self._fall_back(program.fallback)

    def _fall_back(self, reason: str) -> None:
        self.engine = "reference"
        self.fallback = reason
        _LOG.warning("dataflow %s runs on the reference interpreter: %s",
                     self.dataflow, reason)

    def _unrank(self, t_scalar: int) -> tuple[int, ...] | None:
        total = 1
        for r in self.rt:
            total *= r
        if not 0 <= t_scalar < total:
            return None
        out = []
        rem = t_scalar
        for r in reversed(self.rt):
            out.append(rem % r)
            rem //= r
        out.reverse()
        return tuple(out)

    def _node_delay(self, nid: int) -> int:
        node = self.dag.nodes[nid]
        if node.kind == "fifo":
            return self.cfg.fifo_phys.get(nid, self.cfg.fifo_depth.get(nid, 0))
        return node.latency

    def _longest_path(self) -> int:
        dist = {nid: 0 for nid in self.order}
        for nid in self.order:
            for pin, (src, el) in self.inputs.get(nid, {}).items():
                cand = dist[src] + el + self._node_delay(nid)
                if cand > dist[nid]:
                    dist[nid] = cand
        return max(dist.values(), default=0)

    def _prepare_storage(self, tensors: dict[str, np.ndarray]
                         ) -> tuple[dict[str, np.ndarray],
                                    dict[str, tuple[int, ...]]]:
        """Flattened int64 memories per tensor (inputs copied in, the
        rest zeroed) plus the tensor shapes — shared by both engines."""
        storage: dict[str, np.ndarray] = {}
        shapes: dict[str, tuple[int, ...]] = {}
        for ag, agc in self.cfg.addrgen.items():
            tensor = self.dag.nodes[ag].params["tensor"]
            shapes[tensor] = agc.dims
        for tensor, dims in shapes.items():
            if tensor in tensors:
                arr = np.asarray(tensors[tensor]).astype(np.int64)
                if tuple(arr.shape) != tuple(dims):
                    raise ValueError(
                        f"tensor {tensor!r} must have shape {dims}, "
                        f"got {arr.shape}")
                storage[tensor] = arr.reshape(-1)
            else:
                storage[tensor] = np.zeros(int(np.prod(dims)),
                                           dtype=np.int64)
        return storage, shapes

    def _collect_outputs(self, storage, shapes) -> dict[str, np.ndarray]:
        outputs: dict[str, np.ndarray] = {}
        for tensor, dims in shapes.items():
            is_out = any(self.dag.nodes[nid].params.get("tensor") == tensor
                         and self.dag.nodes[nid].kind == "mem_write"
                         for nid in self.cfg.write_enable)
            if is_out:
                outputs[tensor] = storage[tensor].reshape(shapes[tensor])
        return outputs

    def run(self, tensors: dict[str, np.ndarray], *,
            activity: bool = True) -> SimResult:
        """Simulate the full temporal range of the configured dataflow.

        ``tensors`` maps input tensor names to arrays shaped like the
        address generators expect (see :func:`make_input`).  Returns the
        output buffers plus activity counts; ``activity=False`` is for
        callers that keep only the outputs (the golden vectors), and
        lets the vector engine leave the counters empty.
        """
        storage, shapes = self._prepare_storage(tensors)
        if self._program is not None:
            bounds, unsafe = self._program.value_bounds(storage)
            if unsafe is None:
                self.engine, self.fallback = "vector", None
                toggles, mem_reads, mem_writes = self._program.run(
                    storage, bounds, activity)
                return SimResult(
                    outputs=self._collect_outputs(storage, shapes),
                    cycles=self._program.n_cycles, toggles=toggles,
                    mem_reads=mem_reads, mem_writes=mem_writes)
            self._fall_back(unsafe)
        return self._run_reference(storage, shapes)

    def _run_reference(self, storage, shapes) -> SimResult:
        """The original per-cycle interpreter (the bit-exactness
        oracle)."""
        dag = self.dag
        cfg = self.cfg
        total_t = cfg.total_timestamps
        n_cycles = total_t + self.pipeline_bound + 2

        values: dict[int, list] = {nid: [None] * n_cycles for nid in self.order}
        toggles = {nid: 0 for nid in self.order}
        mem_reads: dict[str, int] = {}
        mem_writes: dict[str, int] = {}

        def in_val(nid: int, pin: int, cycle: int):
            entry = self.inputs.get(nid, {}).get(pin)
            if entry is None:
                return None
            src, el = entry
            t = cycle - el
            if t < 0:
                return None
            return values[src][t]

        for n in range(n_cycles):
            for nid in self.order:
                node = dag.nodes[nid]
                kind = node.kind
                out = None
                if kind == "const":
                    out = node.params.get("value", 0)
                elif kind == "ctrl":
                    out = n - cfg.ctrl_offset.get(nid, 0)
                elif kind in ("ctrl_tap", "wire"):
                    out = in_val(nid, 0, n)
                elif kind == "mux":
                    policy = cfg.mux_policy.get(nid)
                    if policy is None:
                        sel = cfg.mux_select.get(nid, 0)
                        out = in_val(nid, sel, n)
                    else:
                        # Dynamic mux: pin 0 carries the local timestamp;
                        # pick the first source whose coverage test passes.
                        t = in_val(nid, 0, n)
                        tv = self._unrank(t) if t is not None else None
                        out = None
                        if tv is not None:
                            for pin, dt in policy:
                                if dt is None:
                                    out = in_val(nid, pin, n)
                                    break
                                if all(0 <= v - d < r for v, d, r in
                                       zip(tv, dt, self.rt)):
                                    out = in_val(nid, pin, n)
                                    break
                elif kind == "fifo":
                    depth = self._node_delay(nid)
                    t = n - depth
                    out = in_val(nid, 0, t) if t >= 0 else None
                elif kind == "addrgen":
                    v = in_val(nid, 0, n - node.latency)
                    agc = cfg.addrgen.get(nid)
                    if v is not None and agc is not None:
                        out = agc.flat_address(int(v))
                elif kind == "mem_read":
                    addr = in_val(nid, 0, n - node.latency)
                    tensor = node.params["tensor"]
                    if nid not in cfg.read_enable or addr is None:
                        out = None
                    elif addr < 0:
                        out = 0  # padding region reads zero
                    else:
                        out = int(storage[tensor][addr])
                        mem_reads[tensor] = mem_reads.get(tensor, 0) + 1
                elif kind == "mem_write":
                    if nid in cfg.write_enable:
                        addr = in_val(nid, 0, n)
                        data = in_val(nid, 1, n)
                        tensor = node.params["tensor"]
                        if addr is not None and addr >= 0 and data is not None:
                            if node.params.get("accumulate", True):
                                storage[tensor][addr] += int(data)
                            else:
                                storage[tensor][addr] = int(data)
                            mem_writes[tensor] = mem_writes.get(tensor, 0) + 1
                    out = None
                elif kind in ("mul", "add", "sub", "shl", "shr", "max"):
                    a = in_val(nid, 0, n - node.latency)
                    b = in_val(nid, 1, n - node.latency)
                    if a is not None and b is not None:
                        if kind == "mul":
                            out = a * b
                        elif kind == "add":
                            out = a + b
                        elif kind == "sub":
                            out = a - b
                        elif kind == "shl":
                            out = a << b
                        elif kind == "shr":
                            out = a >> b
                        else:
                            out = max(a, b)
                elif kind == "reducer":
                    pin_dfs = node.params.get("pin_dataflows", {})
                    total = 0
                    seen = False
                    for pin in self.inputs.get(nid, {}):
                        if pin_dfs and self.dataflow not in pin_dfs.get(pin, ()):
                            continue
                        v = in_val(nid, pin, n - node.latency)
                        if v is not None:
                            total += v
                            seen = True
                    out = total if seen else None
                elif kind == "lut":
                    v = in_val(nid, 0, n - node.latency)
                    table = node.params.get("table")
                    if v is not None and table is not None:
                        out = table[int(v) % len(table)]
                elif kind == "output":
                    out = in_val(nid, 0, n)
                if n > 0 and values[nid][n - 1] != out:
                    toggles[nid] += 1
                values[nid][n] = out

        return SimResult(outputs=self._collect_outputs(storage, shapes),
                         cycles=n_cycles, toggles=toggles,
                         mem_reads=mem_reads, mem_writes=mem_writes)


def make_input(design: Design, dataflow: str, tensor: str,
               rng: np.random.Generator, lo: int = -4, hi: int = 5
               ) -> np.ndarray:
    """Random integer input shaped as the design's address generators
    expect for *tensor* under *dataflow*."""
    cfg = design.configs[dataflow]
    for ag, agc in cfg.addrgen.items():
        if design.dag.nodes[ag].params["tensor"] == tensor:
            return rng.integers(lo, hi, size=agc.dims).astype(np.int64)
    raise KeyError(f"no address generator for tensor {tensor!r}")


def canonical_stimulus(design: Design,
                       dataflow: str) -> dict[str, np.ndarray]:
    """The canonical self-checking-testbench stimulus for *dataflow*:
    ``default_rng(0)`` integers in ``[0, 8)``, one array per tensor the
    configuration reads, generated in sorted tensor order.

    This is the *single* definition every golden-vector producer shares
    (the hls_c and Verilog testbench emitters and the staged pipeline's
    sim-phase cache); its parameters are pinned by
    :data:`CANONICAL_STIMULUS`, which must be bumped with any change
    here or stale cached vectors would keep their old address.
    """
    rng = np.random.default_rng(0)
    cfg = design.configs[dataflow]
    names = sorted({design.dag.nodes[n].params["tensor"]
                    for n in cfg.read_enable})
    return {t: make_input(design, dataflow, t, rng, 0, 8) for t in names}


def golden_vectors(design: Design, dataflow: str, span=None):
    """``(tensors, outputs, cycles)`` of one run of *dataflow* under the
    canonical stimulus — the payload of a sim-phase cache record
    (``docs/backends.md``, "Golden vectors").  An open trace *span* is
    labelled with the engine that ran and the fallback reason."""
    tensors = canonical_stimulus(design, dataflow)
    sim = Simulator(design, dataflow)
    result = sim.run(tensors, activity=False)
    if span is not None:
        span.set(engine=sim.engine, fallback=sim.fallback)
    return tensors, result.outputs, int(result.cycles)
