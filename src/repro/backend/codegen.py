"""ADG -> DAG translation (paper §V, the codegen pass).

The FU black boxes are opened into primitives:

* **one** shared control unit (a counter chain) whose value is
  store-and-forwarded across the FU array according to each dataflow's
  control vector — the delayed counter value *is* each FU's local
  timestamp, which is what lets LEGO generate a single address generator
  per data node instead of one per FU (§III-D);
* per-FU operand ports: a mux over the memory path (address generator +
  L1 read port, present only at data nodes) and the FU interconnections
  (programmable-depth FIFOs, §II).  Delay interconnections only cover
  timestamps away from loop boundaries, so their muxes are *dynamic*: a
  small comparator on the local timestamp picks the covered connection
  and falls back to the memory port otherwise (the valid/invalid control
  signals of §III-C);
* the loop-body arithmetic, shared across fused workloads with operand
  muxes where the sources differ;
* the output path: an accumulation adder combining the local product with
  incoming partials, feeding outgoing interconnections and, at commit
  data nodes, an L1 write port (read-modify-write accumulation over
  temporal reduction steps).  Commits are gated symmetrically: an FU
  whose outgoing delay interconnection covers a timestamp does not
  commit it.

The result is a :class:`Design`: the DAG plus one runtime configuration
per dataflow (mux selects/policies, FIFO depths, address-generator
matrices, write enables, active node/edge sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.adg import ADG
from ..core.dataflow import Dataflow
from .dag import DAG

__all__ = ["AddrGenConfig", "DataflowConfig", "Design", "generate",
           "compute_liveness"]

CTRL_WIDTH = 16
Coord = tuple[int, ...]


@dataclass(frozen=True)
class AddrGenConfig:
    """Per-dataflow affine address mapping of one address generator.

    The hardware is a matrix multiply with bias (§V): when the dataflow
    changes, only the matrix values change, never the structure.  The
    configuration maps the FU-local scalar timestamp to a tensor data
    index: ``d = M_DT @ unrank(t) + offset`` where ``offset`` folds in the
    FU's fixed spatial contribution ``M_DS @ s + b``.

    ``gate_dt`` (commit nodes only): suppress the address whenever
    ``t + gate_dt`` is still a legal timestamp — a downstream FU continues
    the accumulation at that timestamp, so this FU must not commit it.
    """

    rt: tuple[int, ...]
    mdt: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]
    dims: tuple[int, ...]  # full tensor extents, for flattening / bounds
    gate_dt: tuple[int, ...] | None = None

    @staticmethod
    def build(df: Dataflow, tensor: str, fu: Coord,
              gate_dt: tuple[int, ...] | None = None) -> "AddrGenConfig":
        mdt, mds, bias = df.tensor_ts_map(tensor)
        offset = mds @ np.array(fu, dtype=np.int64) + bias
        wl = df.workload
        acc = wl.tensor(tensor)
        m, b = acc.mapping.m, acc.mapping.b
        dims = []
        for row_idx in range(m.shape[0]):
            hi = int(b[row_idx])
            for coeff, dim in zip(m[row_idx], wl.dims):
                if coeff > 0:
                    hi += int(coeff) * (wl.bounds[dim] - 1)
            dims.append(hi + 1)
        return AddrGenConfig(
            rt=df.rt,
            mdt=tuple(tuple(int(x) for x in row) for row in mdt),
            offset=tuple(int(x) for x in offset),
            dims=tuple(dims),
            gate_dt=gate_dt,
        )

    def unrank(self, t_scalar: int) -> tuple[int, ...] | None:
        total = 1
        for r in self.rt:
            total *= r
        if not 0 <= t_scalar < total:
            return None
        t = []
        rem = t_scalar
        for r in reversed(self.rt):
            t.append(rem % r)
            rem //= r
        t.reverse()
        return tuple(t)

    def index_of(self, t_scalar: int) -> tuple[int, ...] | None:
        """Data index for local time ``t_scalar``; None when out of the
        temporal range."""
        t = self.unrank(t_scalar)
        if t is None:
            return None
        mdt = np.array(self.mdt, dtype=np.int64).reshape(len(self.offset),
                                                         len(self.rt))
        return tuple(int(v) for v in (mdt @ np.array(t, dtype=np.int64)
                                      + np.array(self.offset)))

    def flat_address(self, t_scalar: int) -> int | None:
        """Flattened address for local time ``t_scalar``.

        Returns ``None`` when the timestamp is outside the temporal range
        (idle), when the commit gate suppresses it, and ``-1`` when the
        tensor index is out of bounds (padding — reads zero, writes drop).
        """
        t = self.unrank(t_scalar)
        if t is None:
            return None
        if self.gate_dt is not None:
            shifted = [v + d for v, d in zip(t, self.gate_dt)]
            if all(0 <= v < r for v, r in zip(shifted, self.rt)):
                return None  # covered by the outgoing interconnection
        idx = self.index_of(t_scalar)
        addr = 0
        for v, extent in zip(idx, self.dims):
            if not 0 <= v < extent:
                return -1
            addr = addr * extent + v
        return addr


@dataclass
class DataflowConfig:
    """Runtime configuration of the generated design for one dataflow."""

    dataflow: Dataflow
    mux_select: dict[int, int] = field(default_factory=dict)
    #: dynamic muxes: priority list of (pin, dt) — pick the first pin whose
    #: coverage test passes (dt None = always); pin 0 carries the local
    #: timestamp used for the test
    mux_policy: dict[int, list[tuple[int, tuple[int, ...] | None]]] = field(
        default_factory=dict)
    fifo_depth: dict[int, int] = field(default_factory=dict)
    addrgen: dict[int, AddrGenConfig] = field(default_factory=dict)
    write_enable: set[int] = field(default_factory=set)
    read_enable: set[int] = field(default_factory=set)
    active_nodes: set[int] = field(default_factory=set)
    active_edges: set[int] = field(default_factory=set)
    #: physical FIFO delay chosen by delay matching (defaults to the
    #: semantic depth before the pass runs)
    fifo_phys: dict[int, int] = field(default_factory=dict)
    #: per-FU counter start offsets (share_control=False only): a local
    #: counter reproduces the control skew by starting t_bias early
    ctrl_offset: dict[int, int] = field(default_factory=dict)

    @property
    def total_timestamps(self) -> int:
        return self.dataflow.total_timestamps


@dataclass
class Design:
    """A generated accelerator: the primitive DAG plus per-dataflow
    configurations and bookkeeping used by later passes and the simulator."""

    adg: ADG
    dag: DAG
    configs: dict[str, DataflowConfig]
    ports: dict[tuple[Coord, str], int] = field(default_factory=dict)
    out_adders: dict[Coord, int] = field(default_factory=dict)
    taps: dict[Coord, int] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

    def config(self, name: str) -> DataflowConfig:
        return self.configs[name]


class _Wiring:
    """Deferred pin wiring: collect per-pin candidate sources tagged with
    the dataflows (and coverage deltas) that use them, then materialize
    muxes — static or timestamp-gated — where needed."""

    def __init__(self, dag: DAG, configs: dict[str, DataflowConfig],
                 taps: dict[Coord, int]):
        self.dag = dag
        self.configs = configs
        self.taps = taps
        # (dst, pin) -> list of [src, {df: dt|None}, fallback]
        self.pins: dict[tuple[int, int], list[list]] = {}

    def connect(self, src: int, dst: int, pin: int, dataflows: set[str],
                dt_by_df: dict[str, tuple[int, ...] | None] | None = None,
                fallback: bool = False) -> None:
        dts = dt_by_df or {}
        entry = self.pins.setdefault((dst, pin), [])
        for item in entry:
            if item[0] == src:
                for name in dataflows:
                    item[1][name] = dts.get(name)
                item[2] = item[2] and fallback
                return
        entry.append([src, {name: dts.get(name) for name in dataflows},
                      fallback])

    def finalize(self) -> None:
        for (dst, pin), sources in sorted(self.pins.items()):
            # Coverage-limited sources need a dynamic mux with a timestamp
            # input; order sources so interconnections precede fallbacks.
            sources.sort(key=lambda item: item[2])
            dynamic = any(dt is not None and any(dt)
                          for _s, dts, _f in sources for dt in dts.values())
            if len(sources) == 1 and not dynamic:
                self.dag.add_edge(sources[0][0], dst, pin)
                continue
            place = self.dag.nodes[dst].place
            mux = self.dag.add_node("mux", width=self.dag.nodes[dst].width,
                                    place=place,
                                    params={"n_inputs": len(sources),
                                            "dynamic": dynamic})
            base = 0
            if dynamic:
                tap = self.taps.get(place)
                if tap is None:
                    raise RuntimeError(
                        f"dynamic mux at {place!r} has no control tap")
                self.dag.add_edge(tap, mux, 0)
                base = 1
            by_df: dict[str, list[tuple[int, tuple[int, ...] | None]]] = {}
            for idx, (src, dts, _fb) in enumerate(sources):
                self.dag.add_edge(src, mux, base + idx)
                for name, dt in dts.items():
                    by_df.setdefault(name, []).append(
                        (base + idx, dt if dt is not None and any(dt) else None))
            for name, policy in by_df.items():
                cfg = self.configs.get(name)
                if cfg is None:
                    continue
                if len(policy) == 1 and policy[0][1] is None:
                    cfg.mux_select[mux] = policy[0][0]
                else:
                    cfg.mux_policy[mux] = policy
            self.dag.add_edge(mux, dst, pin)


def generate(adg: ADG, share_control: bool = True) -> Design:
    """Translate an ADG into a primitive-level Design.

    ``share_control=False`` generates one control counter per FU instead
    of the shared store-and-forward control — the baseline structure of
    polyhedral/STT generators that Table VI/VIII compare against.
    """
    dag = DAG()
    configs = {df.name: DataflowConfig(df) for df in adg.dataflows}
    coords = adg.dataflows[0].fu_coords()

    zero = dag.add_node("const", width=32, params={"value": 0}, place="control")

    # ---- control distribution ---------------------------------------------------
    taps: dict[Coord, int] = {}
    if share_control:
        ctrl = dag.add_node("ctrl", width=CTRL_WIDTH, place="control")
        for fu in coords:
            taps[fu] = dag.add_node("ctrl_tap", width=CTRL_WIDTH, place=fu)
    else:
        for fu in coords:
            taps[fu] = dag.add_node("ctrl", width=CTRL_WIDTH, place=fu)
            for df in adg.dataflows:
                configs[df.name].ctrl_offset[taps[fu]] = df.t_bias(fu)

    wiring = _Wiring(dag, configs, taps)

    if share_control:
        by_cv: dict[tuple[int, ...], set[str]] = {}
        for df in adg.dataflows:
            by_cv.setdefault(df.control, set()).add(df.name)
        for cv, names in sorted(by_cv.items()):
            if not any(cv):
                for fu in coords:
                    wiring.connect(ctrl, taps[fu], 0, names)
                continue
            for fu in coords:
                prev = _control_prev(fu, cv)
                if prev is None:
                    wiring.connect(ctrl, taps[fu], 0, names)
                else:
                    prev_fu, hop = prev
                    fifo = dag.add_node(
                        "fifo", width=CTRL_WIDTH, place=fu,
                        params={"role": "control_hop"})
                    for name in names:
                        configs[name].fifo_depth[fifo] = hop
                    wiring.connect(taps[prev_fu], fifo, 0, names)
                    wiring.connect(fifo, taps[fu], 0, names)

    # ---- tensors ------------------------------------------------------------------
    input_tensors: list[str] = []
    output_tensors: list[str] = []
    tensor_bits: dict[str, int] = {}
    for wl in adg.workloads:
        for acc in wl.tensors:
            target = output_tensors if acc.is_output else input_tensors
            if acc.name not in target:
                target.append(acc.name)
            tensor_bits[acc.name] = max(tensor_bits.get(acc.name, 0),
                                        acc.dtype_bits)

    # ---- operand ports for input tensors -------------------------------------------
    ports: dict[tuple[Coord, str], int] = {}
    for tensor in input_tensors:
        for fu in coords:
            port = dag.add_node("wire", width=tensor_bits[tensor], place=fu,
                                params={"role": f"port_{tensor}"})
            ports[(fu, tensor)] = port

    # memory paths (addrgen + mem_read) at input data nodes
    for node in adg.data_nodes:
        if node.is_output:
            continue
        fu = node.fu
        ag = dag.add_node("addrgen", width=24, place=fu,
                          params={"tensor": node.tensor})
        rd = dag.add_node("mem_read", width=tensor_bits[node.tensor], place=fu,
                          pins=("addr",), params={"tensor": node.tensor})
        wiring.connect(taps[fu], ag, 0, set(node.dataflows))
        wiring.connect(ag, rd, 0, set(node.dataflows))
        for name in node.dataflows:
            df = adg.dataflow(name)
            if not any(t.name == node.tensor for t in df.workload.tensors):
                continue
            configs[name].addrgen[ag] = AddrGenConfig.build(df, node.tensor, fu)
            configs[name].read_enable.add(rd)
        wiring.connect(rd, ports[(fu, node.tensor)], 0, set(node.dataflows),
                       fallback=bool(node.fallback_of))

    # interconnections for input tensors
    for conn in adg.connections:
        if conn.tensor not in input_tensors:
            continue
        fifo = dag.add_node("fifo", width=tensor_bits[conn.tensor],
                            place=conn.dst,
                            params={"role": "link", "tensor": conn.tensor,
                                    "src": conn.src})
        dts = {}
        for name in conn.dataflows:
            configs[name].fifo_depth[fifo] = conn.depth_for(name)
            dts[name] = conn.dt_for(name)
        wiring.connect(ports[(conn.src, conn.tensor)], fifo, 0,
                       set(conn.dataflows))
        wiring.connect(fifo, ports[(conn.dst, conn.tensor)], 0,
                       set(conn.dataflows), dt_by_df=dts)

    # ---- per-FU arithmetic ----------------------------------------------------------
    acc_bits = max((tensor_bits[t] for t in output_tensors), default=32)
    out_adders: dict[Coord, int] = {}
    for fu in coords:
        op_nodes: dict[tuple[str, int], int] = {}
        out_add = dag.add_node("add", width=acc_bits, place=fu,
                               pins=("a", "b"), params={"role": "accumulate"})
        out_adders[fu] = out_add
        for df in adg.dataflows:
            wl = df.workload
            env: dict[str, int] = {}
            for acc in wl.inputs:
                env[acc.name] = ports[(fu, acc.name)]
            counters: dict[str, int] = {}
            for op in wl.body:
                occ = counters.get(op.op, 0)
                counters[op.op] = occ + 1
                if op.op in ("add_acc", "max_acc"):
                    wiring.connect(env[op.srcs[0]], out_add, 0, {df.name})
                    continue
                kind = "wire" if op.op == "pass" else op.op
                key = (kind, occ)
                if key not in op_nodes:
                    op_nodes[key] = dag.add_node(
                        kind, width=acc_bits, place=fu, pins=("a", "b"))
                node = op_nodes[key]
                for pin, src in enumerate(op.srcs[:2]):
                    wiring.connect(env[src], node, pin, {df.name})
                env[op.dst] = node

    # ---- output path ------------------------------------------------------------------
    # Incoming partial sums.  A dataflow that reduces along several
    # spatial dimensions forms an in-tree: an FU may receive *multiple*
    # partials simultaneously, which must be summed (combine adders), not
    # multiplexed.  Per FU we group incoming links by the exact source
    # set each dataflow activates and build one combine tree per group.
    in_links: dict[Coord, list] = {fu: [] for fu in coords}
    for tensor in output_tensors:
        for conn in adg.connections:
            if conn.tensor != tensor:
                continue
            fifo = dag.add_node("fifo", width=acc_bits, place=conn.dst,
                                params={"role": "link", "tensor": tensor,
                                        "src": conn.src})
            for name in conn.dataflows:
                configs[name].fifo_depth[fifo] = conn.depth_for(name)
            wiring.connect(out_adders[conn.src], fifo, 0, set(conn.dataflows))
            in_links[conn.dst].append((fifo, conn))

    for fu in coords:
        # Source set per dataflow.
        srcs_by_df: dict[str, list[tuple[int, tuple[int, ...] | None]]] = {}
        for fifo, conn in in_links[fu]:
            for name in conn.dataflows:
                srcs_by_df.setdefault(name, []).append(
                    (fifo, conn.dt_for(name)))
        # in dataflow order, not set order: the groups' order numbers the
        # combine adders, so it must not follow the string hash seed
        groups: dict[tuple[int, ...], set[str]] = {}
        for name in configs:
            key = tuple(sorted(f for f, _dt in srcs_by_df.get(name, [])))
            groups.setdefault(key, set()).add(name)
        for key, names in groups.items():
            if not key:
                wiring.connect(zero, out_adders[fu], 1, names, fallback=True)
                continue
            if len(key) == 1:
                fifo = key[0]
                dts = {}
                for name in names:
                    for f, dt in srcs_by_df.get(name, []):
                        if f == fifo:
                            dts[name] = dt
                wiring.connect(fifo, out_adders[fu], 1, names, dt_by_df=dts)
                if any(dt is not None for dt in dts.values()):
                    # Coverage-limited partial: fresh accumulation at the
                    # boundary timestamps.
                    wiring.connect(zero, out_adders[fu], 1, names,
                                   fallback=True)
                continue
            # Multiple simultaneous partials: combine with an adder tree.
            acc_node = key[0]
            for nxt in key[1:]:
                combine = dag.add_node("add", width=acc_bits, place=fu,
                                       pins=("a", "b"),
                                       params={"role": "combine"})
                wiring.connect(acc_node, combine, 0, names)
                wiring.connect(nxt, combine, 1, names)
                acc_node = combine
            wiring.connect(acc_node, out_adders[fu], 1, names)

    # commit data nodes: addrgen + mem_write with read-modify-write
    for node in adg.data_nodes:
        if not node.is_output:
            continue
        fu = node.fu
        ag = dag.add_node("addrgen", width=24, place=fu,
                          params={"tensor": node.tensor})
        wr = dag.add_node("mem_write", width=acc_bits, place=fu,
                          pins=("addr", "data"),
                          params={"tensor": node.tensor, "accumulate": True})
        wiring.connect(taps[fu], ag, 0, set(node.dataflows))
        wiring.connect(ag, wr, 0, set(node.dataflows))
        wiring.connect(out_adders[fu], wr, 1, set(node.dataflows))
        for name in node.dataflows:
            df = adg.dataflow(name)
            if not any(t.name == node.tensor for t in df.workload.tensors):
                continue
            gate = None
            for conn in adg.connections:
                if (conn.tensor == node.tensor and conn.src == fu
                        and name in conn.dataflows):
                    gate = conn.dt_for(name)
            configs[name].addrgen[ag] = AddrGenConfig.build(
                df, node.tensor, fu, gate_dt=gate)
            configs[name].write_enable.add(wr)

    wiring.finalize()
    design = Design(adg=adg, dag=dag, configs=configs, ports=ports,
                    out_adders=out_adders, taps=taps)
    compute_liveness(design)
    dag.validate()
    return design


def _control_prev(fu: Coord, cv: tuple[int, ...]) -> tuple[Coord, int] | None:
    """Predecessor of *fu* on the control store-and-forward chain for
    control vector *cv*, with the hop delay; None at the chain origin."""
    for dim in range(len(fu) - 1, -1, -1):
        c = cv[dim]
        if c > 0 and fu[dim] > 0:
            prev = list(fu)
            prev[dim] -= 1
            return tuple(prev), c
        if c < 0:
            raise NotImplementedError(
                "backward control propagation is symmetric and not needed "
                "by the evaluated dataflows")
    return None


def compute_liveness(design: Design) -> None:
    """Mark, per dataflow, the nodes and edges on an active path (used by
    delay matching, the cycle simulator, the energy model and power
    gating).

    Must be re-run after any pass that mutates the DAG topology.
    """
    dag = design.dag
    for name, cfg in design.configs.items():
        active: set[int] = set()
        active_edges: set[int] = set()
        frontier = list(cfg.write_enable)
        while frontier:
            nid = frontier.pop()
            if nid in active:
                continue
            active.add(nid)
            node = dag.nodes[nid]
            edges = dag.in_edges(nid)
            if node.kind == "mux":
                if nid in cfg.mux_policy:
                    pins = {0} | {p for p, _dt in cfg.mux_policy[nid]}
                    edges = [e for e in edges if e.dst_pin in pins]
                else:
                    sel = cfg.mux_select.get(nid)
                    edges = [e for e in edges if e.dst_pin == sel]
            for e in edges:
                src = dag.nodes[e.src]
                if src.kind == "fifo" and e.src not in cfg.fifo_depth:
                    continue  # FIFO not programmed under this dataflow
                if src.kind == "mem_read" and e.src not in cfg.read_enable:
                    continue
                active_edges.add(e.uid)
                frontier.append(e.src)
        cfg.active_nodes = active
        cfg.active_edges = active_edges
