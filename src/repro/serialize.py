"""JSON serialization of generated architectures.

An accelerator-generation tool must let users persist and diff what it
produced: the ADG (front-end decisions), the DAG (primitive netlist with
delay-matching results), and the per-dataflow runtime configurations.
The format is plain JSON — stable keys, integer-exact — and round-trips
through :func:`design_from_dict` for the simulator and the emitters.
Serving processes only need :func:`canonical_dumps`, so the design
codec imports the generator inside its functions.

(Workload/dataflow definitions are code, not data: the ADG embeds only
what downstream consumers need — matrices, bounds, names.)
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .backend.codegen import Design
    from .backend.dag import DAG

__all__ = ["design_to_dict", "design_from_dict", "canonical_dumps"]

#: the encoder ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``
#: would build on every call
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_dumps(obj) -> str:
    """Deterministic JSON — sorted keys, no whitespace.  The service
    layer hashes and byte-compares this form, so it must not vary across
    processes or Python versions."""
    return _CANONICAL.encode(obj)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in sorted(value, key=repr)] \
            if isinstance(value, (set, frozenset)) else \
            [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def design_to_dict(design: Design) -> dict:
    """The JSON-ready dictionary form of a generated design."""
    dag = design.dag
    nodes = []
    for nid in sorted(dag.nodes):
        node = dag.nodes[nid]
        nodes.append({
            "id": nid,
            "kind": node.kind,
            "width": node.width,
            "latency": node.latency,
            "place": _jsonable(node.place),
            "params": _jsonable(node.params),
        })
    edges = [{
        "uid": e.uid, "src": e.src, "dst": e.dst, "pin": e.dst_pin,
        "width": e.width, "el": e.el,
    } for e in dag.edges]

    configs = {}
    for name, cfg in design.configs.items():
        configs[name] = {
            "mux_select": {str(k): v for k, v in cfg.mux_select.items()},
            "mux_policy": {str(k): [[p, list(dt) if dt else None]
                                    for p, dt in policy]
                           for k, policy in cfg.mux_policy.items()},
            "fifo_depth": {str(k): v for k, v in cfg.fifo_depth.items()},
            "fifo_phys": {str(k): v for k, v in cfg.fifo_phys.items()},
            "write_enable": sorted(cfg.write_enable),
            "read_enable": sorted(cfg.read_enable),
            "total_timestamps": cfg.total_timestamps,
            # the dataflow's temporal basis plus the liveness/offset
            # tables: everything design_from_dict needs to rebuild a
            # simulatable, emittable configuration without live
            # Dataflow objects
            "rt": [int(r) for r in cfg.dataflow.rt],
            "ctrl_offset": {str(k): v for k, v in cfg.ctrl_offset.items()},
            "active_nodes": sorted(cfg.active_nodes),
            "active_edges": sorted(cfg.active_edges),
            "addrgen": {str(k): {
                "rt": list(a.rt),
                "mdt": [list(r) for r in a.mdt],
                "offset": list(a.offset),
                "dims": list(a.dims),
                "gate_dt": list(a.gate_dt) if a.gate_dt else None,
            } for k, a in cfg.addrgen.items()},
        }

    adg = design.adg
    if adg is None:
        # A design reloaded by design_from_dict: the front-end graph is
        # code and is not reconstructed, but its serialized form rides
        # along so re-serialization round-trips byte-identically.
        meta = getattr(design, "_adg_dict", None) or {
            "fu_shape": [], "dataflows": sorted(design.configs), "adg": {}}
        fu_shape = list(meta["fu_shape"])
        dataflow_names = list(meta["dataflows"])
        adg_section = meta["adg"]
    else:
        fu_shape = list(adg.fu_shape)
        dataflow_names = [df.name for df in adg.dataflows]
        adg_section = {
            "connections": [{
                "tensor": c.tensor, "src": list(c.src), "dst": list(c.dst),
                "depth": c.depth, "kind": c.kind,
                "dataflows": sorted(c.dataflows),
            } for c in adg.connections],
            "data_nodes": [{
                "tensor": n.tensor, "fu": list(n.fu),
                "is_output": n.is_output,
                "dataflows": sorted(n.dataflows),
                "fallback_of": sorted(n.fallback_of),
            } for n in adg.data_nodes],
            "memory": {t: {"bank_shape": list(m.bank_shape),
                           "bank_stride": list(m.bank_stride),
                           "n_data_nodes": m.n_data_nodes}
                       for t, m in adg.memory.items()},
        }
    return {
        "format": "lego-design-v1",
        "fu_shape": fu_shape,
        "dataflows": dataflow_names,
        "adg": adg_section,
        "dag": {"nodes": nodes, "edges": edges},
        "configs": configs,
        "report": _jsonable({k: v for k, v in design.report.items()
                             if k != "options"}),
    }


def _dag_from_dict(data: dict) -> DAG:
    """Rebuild the primitive DAG of a serialized design."""
    from .backend.dag import DAG
    from .backend.primitives import Primitive

    dag = DAG()
    for spec in data["dag"]["nodes"]:
        node = Primitive(spec["id"], spec["kind"], width=spec["width"],
                         latency=spec["latency"],
                         params=_restore_params(spec["params"]),
                         place=tuple(spec["place"])
                         if isinstance(spec["place"], list) else spec["place"])
        dag.restore_node(node)
    for spec in data["dag"]["edges"]:
        dag.restore_edge(spec["uid"], spec["src"], spec["dst"], spec["pin"],
                         spec["width"], spec["el"])
    return dag


class _LoadedDataflow:
    """Stand-in for the live :class:`~repro.core.dataflow.Dataflow` of a
    reloaded design: carries exactly what the simulator and the emitter
    families read (name, temporal basis, timestamp count)."""

    __slots__ = ("name", "rt", "total_timestamps")

    def __init__(self, name: str, rt, total_timestamps: int):
        self.name = name
        self.rt = tuple(int(r) for r in rt)
        self.total_timestamps = int(total_timestamps)


def _restore_params(params: dict) -> dict:
    """Undo the JSON coercions of :func:`_jsonable` for the parameter
    keys the simulator and emitters consume structurally."""
    out = dict(params)
    pdf = out.get("pin_dataflows")
    if isinstance(pdf, dict):
        out["pin_dataflows"] = {int(k): set(v) for k, v in pdf.items()}
    return out


def design_from_dict(data: dict) -> Design:
    """Rebuild a simulatable, emittable :class:`Design` from its
    :func:`design_to_dict` form.

    The reloaded design carries the DAG, every per-dataflow runtime
    configuration (with liveness sets and control offsets), and the pass
    report — everything the cycle-accurate simulator and the emitter
    backends consume.  It does *not* carry the front-end ADG (whose
    dataflow/workload objects are code, not data): ``design.adg`` is
    ``None``, so ADG-level reports must come from the original record.
    This is the content-addressed intermediate the staged cold path
    caches between the scheduling and emission phases.
    """
    from .backend.codegen import AddrGenConfig, DataflowConfig, Design

    if data.get("format") != "lego-design-v1":
        raise ValueError("not a LEGO design dictionary")
    dag = _dag_from_dict(data)

    configs: dict[str, DataflowConfig] = {}
    for name, raw in data["configs"].items():
        addrgen = {
            int(k): AddrGenConfig(
                rt=tuple(int(r) for r in a["rt"]),
                mdt=tuple(tuple(int(x) for x in row) for row in a["mdt"]),
                offset=tuple(int(x) for x in a["offset"]),
                dims=tuple(int(x) for x in a["dims"]),
                gate_dt=(tuple(int(x) for x in a["gate_dt"])
                         if a.get("gate_dt") else None))
            for k, a in raw["addrgen"].items()}
        configs[name] = DataflowConfig(
            dataflow=_LoadedDataflow(name, raw["rt"],
                                     raw["total_timestamps"]),
            mux_select={int(k): int(v)
                        for k, v in raw["mux_select"].items()},
            mux_policy={int(k): [(int(p), tuple(int(x) for x in dt)
                                  if dt else None) for p, dt in policy]
                        for k, policy in raw["mux_policy"].items()},
            fifo_depth={int(k): int(v)
                        for k, v in raw["fifo_depth"].items()},
            fifo_phys={int(k): int(v)
                       for k, v in raw.get("fifo_phys", {}).items()},
            addrgen=addrgen,
            write_enable=set(raw["write_enable"]),
            read_enable=set(raw["read_enable"]),
            active_nodes=set(raw["active_nodes"]),
            active_edges=set(raw["active_edges"]),
            ctrl_offset={int(k): int(v)
                         for k, v in raw.get("ctrl_offset", {}).items()},
        )

    design = Design(adg=None, dag=dag, configs=configs,
                    report=data.get("report", {}))
    design._adg_dict = {"fu_shape": data.get("fu_shape", []),
                        "dataflows": data.get("dataflows",
                                              sorted(configs)),
                        "adg": data.get("adg", {})}
    return design
