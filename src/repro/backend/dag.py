"""The detailed architecture graph (DAG) — the back end's working IR (§V).

Nodes are :class:`~repro.backend.primitives.Primitive` instances; edges
carry bit-width and the number of pipeline registers (``el``) inserted by
delay matching.  FIFO primitives additionally carry per-dataflow
programmable depths in their params; those registers are accounted
separately from ``el``.

:class:`DAG` is an *indexed* IR and the single owner of adjacency.  Edges
live in one insertion-ordered map keyed by ``uid`` (``dag.edges`` is a
read-only view of it, so emission and serialization order is the order
edges were added), and every node has an in- and an out-map over the same
:class:`Edge` objects, so :meth:`DAG.in_edges` / :meth:`DAG.out_edges`
cost O(degree) and return edges in the same relative order as a scan of
``dag.edges`` would.  The index is only correct if the graph is mutated
through :meth:`DAG.add_node`, :meth:`DAG.add_edge`,
:meth:`DAG.remove_edge`, :meth:`DAG.remove_node` and the two ``restore_*``
methods deserialization uses; nothing outside this module appends to the
edge container, deletes from ``dag.nodes`` or rewrites an edge's
endpoints (``tests/test_dag_index.py`` has the structural guard, and
:meth:`DAG.validate` cross-checks the index against the edge set).

Every one of those mutators bumps :attr:`DAG.version`, so an analysis of
the topology can be kept for as long as the version it was computed at
is current: the unfiltered :meth:`DAG.topo_order` is memoized that way,
and so is ``codegen.compute_liveness``.  Widths, ``el``, placements and
params are not topology and do not bump it.
"""

from __future__ import annotations

from collections.abc import ValuesView
from dataclasses import dataclass

from .primitives import Primitive

__all__ = ["Edge", "DAG"]


@dataclass(slots=True)
class Edge:
    """A directed wire bundle from ``src``'s output to pin ``dst_pin`` of
    ``dst``.  ``el`` counts inserted pipeline registers (delay matching);
    ``width`` is inherited from the source node by bit-width inference.
    ``src``/``dst``/``dst_pin``/``uid`` are fixed once the edge is in a
    :class:`DAG` (they key its index); ``width`` and ``el`` are the
    passes' to write."""

    src: int
    dst: int
    dst_pin: int = 0
    width: int = 8
    el: int = 0
    uid: int = -1


class DAG:
    """A primitive-level architecture graph with per-node adjacency,
    cycle checking and the register accounting the backend passes
    optimize."""

    def __init__(self) -> None:
        self.nodes: dict[int, Primitive] = {}
        self._edges: dict[int, Edge] = {}            # uid -> edge
        self._in: dict[int, dict[int, Edge]] = {}    # node -> uid -> edge
        self._out: dict[int, dict[int, Edge]] = {}
        self._next_id = 0
        self._next_edge_uid = 0
        #: bumped by every topology mutation (see the module docstring)
        self.version = 0
        # sequential_break -> (version, order, or None when cyclic)
        self._topo: dict[bool, tuple[int, list[int] | None]] = {}

    # -- construction ------------------------------------------------------------

    def add_node(self, kind: str, *, width: int = 8, latency: int | None = None,
                 params: dict | None = None, place=None,
                 pins: tuple[str, ...] = ()) -> int:
        node = Primitive(self._next_id, kind, pins=pins, width=width,
                         latency=latency, params=params or {}, place=place)
        self.restore_node(node)
        return node.node_id

    def restore_node(self, node: Primitive) -> None:
        """Insert an already-built node under its own id (deserialization)."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        self._in[node.node_id] = {}
        self._out[node.node_id] = {}
        self._next_id = max(self._next_id, node.node_id + 1)
        self.version += 1

    def add_edge(self, src: int, dst: int, dst_pin: int = 0,
                 width: int | None = None) -> Edge:
        if src not in self.nodes:
            raise KeyError("edge endpoints must be existing nodes")
        return self.restore_edge(
            self._next_edge_uid, src, dst, dst_pin,
            width if width is not None else self.nodes[src].width)

    def restore_edge(self, uid: int, src: int, dst: int, dst_pin: int,
                     width: int, el: int = 0) -> Edge:
        """Append an edge under a caller-chosen ``uid`` (deserialization:
        configs reference edges by uid, so reloading must keep them)."""
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError("edge endpoints must be existing nodes")
        if uid in self._edges:
            raise ValueError(f"duplicate edge uid {uid}")
        edge = Edge(src, dst, dst_pin, width, el, uid)
        self._edges[uid] = self._in[dst][uid] = self._out[src][uid] = edge
        self._next_edge_uid = max(self._next_edge_uid, uid + 1)
        self.version += 1
        return edge

    def remove_edge(self, edge: Edge) -> None:
        if self._edges.get(edge.uid) is not edge:
            raise ValueError(f"{edge} is not an edge of this DAG")
        del self._edges[edge.uid]
        del self._in[edge.dst][edge.uid]
        del self._out[edge.src][edge.uid]
        self.version += 1

    def remove_node(self, node_id: int) -> None:
        """Delete a node and every edge touching it."""
        # merged by uid, so a self-loop is removed once
        for edge in {**self._in[node_id], **self._out[node_id]}.values():
            self.remove_edge(edge)
        del self.nodes[node_id], self._in[node_id], self._out[node_id]
        self.version += 1

    # -- queries -----------------------------------------------------------------

    @property
    def edges(self) -> ValuesView[Edge]:
        """Every edge, in insertion order (read-only view)."""
        return self._edges.values()

    def in_edges(self, node_id: int) -> list[Edge]:
        return list(self._in[node_id].values())

    def out_edges(self, node_id: int) -> list[Edge]:
        return list(self._out[node_id].values())

    def topo_order(self, sequential_break: bool = True,
                   edge_filter=None) -> list[int]:
        """Topological order; raises on combinational cycles.

        With ``sequential_break`` (default) FIFO outputs do not impose
        ordering: FIFOs are sequential elements, so a static cycle through
        a FIFO is legal hardware (e.g. two dataflows driving a link pair
        in opposite directions — only one is ever active).  Pass
        ``edge_filter`` to restrict to a per-dataflow active subgraph.

        Without a filter the order is memoized per ``sequential_break``
        until :attr:`version` moves; the caller gets its own copy.
        """
        if edge_filter is not None:
            order = self._sort(sequential_break, edge_filter)
        else:
            version, order = self._topo.get(sequential_break, (-1, None))
            if version != self.version:
                order = self._sort(sequential_break, None)
                self._topo[sequential_break] = (self.version, order)
            if order is not None:
                order = list(order)
        if order is None:
            raise ValueError("DAG contains a combinational cycle")
        return order

    def _sort(self, sequential_break: bool, edge_filter) -> list[int] | None:
        """Kahn's algorithm behind :meth:`topo_order`; None on a cycle."""
        indeg = dict.fromkeys(self.nodes, 0)
        succ: dict[int, list[int]] = {}
        for nid, node in self.nodes.items():
            succ[nid] = targets = []
            if sequential_break and node.kind == "fifo":
                continue
            for e in self._out[nid].values():
                if edge_filter is None or edge_filter(e):
                    indeg[e.dst] += 1
                    targets.append(e.dst)
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            nid = ready.pop()
            order.append(nid)
            for nxt in succ[nid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
        return order if len(order) == len(self.nodes) else None

    def validate(self) -> None:
        """Structural sanity, O(V+E): every edge joins existing nodes, the
        adjacency index agrees with the edge set, pins exist and have one
        driver, sinks have no fan-out, and the graph is acyclic."""
        if not (self._in.keys() == self._out.keys() == self.nodes.keys()):
            raise ValueError("adjacency index and node set disagree")
        if not (sum(map(len, self._in.values())) == len(self._edges)
                == sum(map(len, self._out.values()))):
            raise ValueError("adjacency index and edge set disagree")
        driven: set[tuple[int, int]] = set()
        for uid, e in self._edges.items():
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise ValueError(f"{e} has an endpoint that is not a node")
            if (e.uid != uid or self._in[e.dst].get(uid) is not e
                    or self._out[e.src].get(uid) is not e):
                raise ValueError(f"{e} is missing from the adjacency index")
            node = self.nodes[e.dst]
            if node.pins and e.dst_pin >= len(node.pins):
                raise ValueError(f"edge targets pin {e.dst_pin} of {node}")
            if (e.dst, e.dst_pin) in driven:
                raise ValueError(f"pin {e.dst_pin} of {node} has two drivers")
            driven.add((e.dst, e.dst_pin))
        for nid, node in self.nodes.items():
            if node.is_sink and self._out[nid]:
                raise ValueError(f"sink {node} has outgoing edges")
        # an order that keeps FIFO edges proves the weaker property too,
        # and is the one bit-width inference then finds memoized
        try:
            self.topo_order(sequential_break=False)
        except ValueError:
            self.topo_order(sequential_break=True)

    # -- register accounting (the optimization target of §V) ---------------------

    def pipeline_register_bits(self) -> int:
        """Bits of pipeline registers inserted by delay matching."""
        return sum(e.el * e.width for e in self.edges)

    def fifo_register_bits(self) -> int:
        """Bits of delay-FIFO storage: each FIFO's capacity (the max
        physical depth over dataflows, set by delay matching) times its
        width."""
        return sum(node.params.get("depth", 0) * node.width
                   for node in self.nodes.values() if node.kind == "fifo")

    def count(self, kind: str) -> int:
        return sum(1 for n in self.nodes.values() if n.kind == kind)

    def stats(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for node in self.nodes.values():
            out[node.kind] = out.get(node.kind, 0) + 1
        out["pipeline_register_bits"] = self.pipeline_register_bits()
        out["fifo_register_bits"] = self.fifo_register_bits()
        out["n_edges"] = len(self.edges)
        return out
