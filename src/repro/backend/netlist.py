"""The last step of lowering: one dataflow of a scheduled design as a
netlist of per-cycle operations.

The vectorized simulator (:mod:`repro.sim.step_program`) executes a
:class:`Netlist` and the HLS-C family (:mod:`repro.backends.hls_c`)
prints it, so what a primitive does under one dataflow is decided here
once:

* **graph preparation**: the active primitives in topological order,
  their per-pin ``(src, el)`` inputs, the pipeline bound (the longest
  lookback path) and from it ``n_cycles``, the length of a run;
* **read delay**: a primitive reads pin ``p`` at cycle ``n`` from its
  source's value at cycle ``n - lookback``, with ``lookback = el +``
  the FIFO's programmed depth, 0 for pass-throughs, muxes and memory
  writes, or the primitive's latency;
* **selection**: a statically selected mux is a pass-through of its
  selected pin, and a reducer sums only the pins its dataflow uses;
* **idleness**: a disabled memory port, an address generator with no
  configuration, a LUT with no table or an unconnected operand never
  produces (or commits) a value.

The per-cycle reference interpreter (``Simulator(..., reference=True)``)
is the oracle these rules are checked against, so it shares only the
graph preparation and walks the DAG with its own copy of them.

Every :class:`Op` has one of these kinds (``operands`` in order):

========== ==================================== ========================
kind       operands                             carries
========== ==================================== ========================
const      --                                   ``value``
ctrl       --                                   ``value`` (the offset)
pass       source                               --
mux_dyn    timestamp, one source per policy     ``dts``
           entry (None: unconnected, invalid)
addrgen    timestamp                            ``agc``
mem_read   address                              ``tensor``
mem_write  address, data                        ``tensor``, ``accumulate``
alu        a, b (``prim`` names the operation)  --
reducer    the summed pins, sorted              --
lut        input                                ``table``
idle       --                                   --
========== ==================================== ========================
"""

from __future__ import annotations

from dataclasses import dataclass

from .codegen import AddrGenConfig, Design

__all__ = ["Netlist", "Op"]

#: kinds that forward their one input unchanged
PASS_KINDS = ("ctrl_tap", "wire", "output", "fifo")
ALU_KINDS = ("mul", "add", "sub", "shl", "shr", "max")


@dataclass(slots=True, eq=False)
class Op:
    """One active primitive as its consumers execute or print it; an
    operand is ``(src node, lookback)``, or None for an unconnected
    source of a ``mux_dyn``."""

    nid: int
    prim: str
    kind: str
    operands: tuple = ()
    value: int = 0
    tensor: str | None = None
    accumulate: bool = True
    table: tuple[int, ...] | None = None
    agc: AddrGenConfig | None = None
    dts: tuple = ()


class Netlist:
    """The lowering of one dataflow configuration of *design*.

    Graph preparation happens at construction.  :meth:`ops` lowers on
    each call, so a caller that only needs the preparation pays for
    nothing else, and a consumer holds the ops only while it compiles or
    prints them.
    """

    def __init__(self, design: Design, dataflow: str):
        self.dag = dag = design.dag
        self.dataflow = dataflow
        self.cfg = cfg = design.configs[dataflow]
        self.rt = tuple(map(int, cfg.dataflow.rt))
        nodes, edges = cfg.active_nodes, cfg.active_edges
        self.order = [nid for nid in dag.topo_order(
            sequential_break=False, edge_filter=lambda e: e.uid in edges)
            if nid in nodes]
        self.inputs: dict[int, dict[int, tuple[int, int]]] = {}
        for e in dag.edges:
            if e.uid in edges and e.dst in nodes and e.src in nodes:
                self.inputs.setdefault(e.dst, {})[e.dst_pin] = (e.src, e.el)
        self._delay = {nid: self.read_delay(nid) for nid in self.order}
        dist = dict.fromkeys(self.order, 0)
        for nid in self.order:
            delay = self._delay[nid]
            for src, el in self.inputs.get(nid, {}).values():
                if dist[src] + el + delay > dist[nid]:
                    dist[nid] = dist[src] + el + delay
        self.pipeline_bound = max(dist.values(), default=0)
        self.n_cycles = cfg.total_timestamps + self.pipeline_bound + 2

    def read_delay(self, nid: int) -> int:
        """Cycles, beyond its input edges' pipeline stages, by which
        *nid* reads its inputs in the past."""
        node = self.dag.nodes[nid]
        if node.kind == "fifo":
            return self.cfg.fifo_phys.get(nid, self.cfg.fifo_depth.get(nid, 0))
        if node.kind in ("ctrl_tap", "wire", "output", "mux", "mem_write"):
            return 0
        return node.latency

    def ops(self) -> list[Op]:
        """One op per active primitive, in topological order."""
        nodes, inputs = self.dag.nodes, self.inputs
        return [self._lower(nid, nodes[nid], inputs.get(nid, {}))
                for nid in self.order]

    def _lower(self, nid: int, node, pins: dict) -> Op:
        """The op of *node*, whose inputs by pin are *pins*."""
        cfg, kind = self.cfg, node.kind
        op = Op(nid, kind, kind)
        reads, enabled = (0,), True
        if kind in PASS_KINDS:
            op.kind = "pass"
        elif kind == "mux":
            policy = cfg.mux_policy.get(nid)
            if policy is None:
                op.kind, reads = "pass", (cfg.mux_select.get(nid, 0),)
            else:
                op.kind = "mux_dyn"
                op.dts = tuple(None if dt is None else tuple(map(int, dt))
                               for _pin, dt in policy)
        elif kind in ALU_KINDS:
            op.kind, reads = "alu", (0, 1)
        elif kind == "addrgen":
            op.agc = cfg.addrgen.get(nid)
            enabled = op.agc is not None
            assert not enabled or tuple(map(int, op.agc.rt)) == self.rt, \
                "address generators share the dataflow's temporal basis"
        elif kind == "mem_read":
            op.tensor = node.params["tensor"]
            enabled = nid in cfg.read_enable
        elif kind == "mem_write":
            op.tensor, reads = node.params["tensor"], (0, 1)
            op.accumulate = node.params.get("accumulate", True)
            enabled = nid in cfg.write_enable
        elif kind == "reducer":
            pin_dfs = node.params.get("pin_dataflows", {})
            reads = [pin for pin in sorted(pins)
                     if not pin_dfs or self.dataflow in pin_dfs.get(pin, ())]
            enabled = bool(reads)
        elif kind == "lut":
            table = node.params.get("table")
            enabled = table is not None
            op.table = tuple(map(int, table)) if enabled else None
        elif kind == "const":
            op.value, reads = int(node.params.get("value", 0)), ()
        elif kind == "ctrl":
            op.value, reads = int(cfg.ctrl_offset.get(nid, 0)), ()
        else:
            enabled = False  # an unknown kind never produces
        if not enabled:
            return Op(nid, kind, "idle")
        delay = self._delay[nid]
        operands = []
        for pin in reads:
            entry = pins.get(pin)
            if entry is None:
                return Op(nid, kind, "idle")
            operands.append((entry[0], entry[1] + delay) if delay else entry)
        if op.kind == "mux_dyn":
            # an unconnected source is kept: it forwards an invalid value
            operands += [None if (entry := pins.get(pin)) is None
                         else (entry[0], entry[1] + delay)
                         for pin, _dt in policy]
        op.operands = tuple(operands)
        return op
