"""The indexed back-end IR: ``DAG`` owns adjacency, and nothing else does.

Four layers of protection for the index behind ``DAG.in_edges`` /
``out_edges`` and the analyses memoized on ``DAG.version``:

* random mutation sequences checked step by step against the flat
  edge-list scan the index replaced (the oracle stays here);
* ``DAG.validate`` rejecting the broken graphs a hand mutation can leave;
* an AST guard over ``src/repro``: no module other than
  ``backend/dag.py`` mutates the edge container, deletes from
  ``dag.nodes``, filters ``dag.edges`` by endpoint, or reads the index's
  private fields;
* every mutator bumps ``DAG.version``, and at every pass boundary of
  ``run_backend`` over the golden kernels the memoized active sets and
  topological orders equal a fresh computation on a rebuilt copy.
"""

import ast
import copy
import importlib
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import generate, run_backend
from repro.backend.codegen import Design, compute_liveness
from repro.backend.dag import DAG, Edge
from repro.backend.primitives import Primitive
from repro.core.frontend import build_adg
from repro.serialize import design_from_dict, design_to_dict
from repro.service.spec import DesignRequest

from test_golden_identity import KERNELS, OPTIONS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
OWNER = SRC / "backend" / "dag.py"


# ---------------------------------------------------------------------------
# the oracle: one flat list, scanned per query
# ---------------------------------------------------------------------------

class ListGraph:
    """Adjacency the way the IR answered it before the index."""

    def __init__(self):
        self.nodes: list[int] = []
        self.edges: list[Edge] = []

    def in_edges(self, nid):
        return [e for e in self.edges if e.dst == nid]

    def out_edges(self, nid):
        return [e for e in self.edges if e.src == nid]

    def remove_node(self, nid):
        self.edges = [e for e in self.edges if nid not in (e.src, e.dst)]
        self.nodes.remove(nid)


def assert_same_adjacency(dag: DAG, oracle) -> None:
    assert list(dag.nodes) == list(oracle.nodes)
    assert len(dag.edges) == len(oracle.edges)
    assert all(a is b for a, b in zip(dag.edges, oracle.edges))
    for nid in oracle.nodes:
        assert dag.in_edges(nid) == oracle.in_edges(nid)
        assert dag.out_edges(nid) == oracle.out_edges(nid)


def pick(seq, i):
    return seq[i % len(seq)]


OPS = st.lists(
    st.tuples(st.sampled_from(["add_node", "add_edge", "add_edge",
                               "remove_edge", "remove_node", "restore_edge"]),
              st.integers(0, 1 << 16), st.integers(0, 1 << 16),
              st.integers(0, 3)),
    max_size=60)


def rebuilt(dag: DAG) -> DAG:
    """*dag* rebuilt through ``restore_*``: the same nodes and edges in
    the same order, and nothing memoized."""
    fresh = DAG()
    for node in copy.deepcopy(list(dag.nodes.values())):
        fresh.restore_node(node)
    for e in dag.edges:
        fresh.restore_edge(e.uid, e.src, e.dst, e.dst_pin, e.width, e.el)
    return fresh


def topo_or_cycle(dag: DAG, sequential_break: bool):
    try:
        return dag.topo_order(sequential_break)
    except ValueError:
        return "cycle"


class TestIndexMatchesListScan:
    @given(OPS)
    @settings(max_examples=150, deadline=None)
    def test_random_mutation_sequences(self, ops):
        dag, oracle = DAG(), ListGraph()
        for _ in range(3):
            oracle.nodes.append(dag.add_node("wire"))
        max_uid = -1
        for op, a, b, pin in ops:
            topo_or_cycle(dag, a % 2 == 0)     # leave a memo behind
            if op == "add_node":
                nid = dag.add_node("wire")
                assert nid not in oracle.nodes
                oracle.nodes.append(nid)
            elif op in ("add_edge", "restore_edge") and oracle.nodes:
                src, dst = pick(oracle.nodes, a), pick(oracle.nodes, b)
                if op == "add_edge":
                    edge = dag.add_edge(src, dst, pin)
                else:   # a uid with a gap, as a reloaded design has
                    edge = dag.restore_edge(max_uid + 1 + pin, src, dst,
                                            pin, width=8, el=pin)
                assert edge.uid > max_uid, "uids must never be reused"
                max_uid = edge.uid
                oracle.edges.append(edge)
            elif op == "remove_edge" and oracle.edges:
                edge = pick(oracle.edges, a)
                dag.remove_edge(edge)
                oracle.edges.remove(edge)
            elif op == "remove_node" and oracle.nodes:
                nid = pick(oracle.nodes, a)
                dag.remove_node(nid)
                oracle.remove_node(nid)
            assert_same_adjacency(dag, oracle)
            fresh = rebuilt(dag)
            for brk in (True, False):
                assert topo_or_cycle(dag, brk) == topo_or_cycle(fresh, brk)

        # and the index survives serialization: same edges, same order
        reloaded = design_from_dict(design_to_dict(
            Design(adg=None, dag=dag, configs={}))).dag
        assert list(reloaded.nodes) == sorted(oracle.nodes)
        assert list(reloaded.edges) == oracle.edges
        for nid in oracle.nodes:
            assert reloaded.in_edges(nid) == oracle.in_edges(nid)
            assert reloaded.out_edges(nid) == oracle.out_edges(nid)
        # ... and new ids still never collide with surviving ones
        nid = reloaded.add_node("wire")
        assert nid not in oracle.nodes
        fresh = reloaded.add_edge(nid, nid)
        assert all(fresh.uid > e.uid for e in oracle.edges)

    def test_query_results_are_snapshots(self):
        """Passes remove edges while walking ``out_edges``."""
        dag = DAG()
        a, b = dag.add_node("wire"), dag.add_node("wire")
        for pin in range(3):
            dag.add_edge(a, b, pin)
        for e in dag.out_edges(a):
            dag.remove_edge(e)
        assert not dag.edges and not dag.in_edges(b)

    def test_edges_view_is_read_only(self):
        dag = DAG()
        a = dag.add_node("wire")
        dag.add_edge(a, a)
        assert not hasattr(dag.edges, "append")
        assert not hasattr(dag.edges, "remove")
        with pytest.raises(AttributeError):
            dag.edges = []


class TestVersion:
    def test_every_mutator_bumps_the_version(self):
        dag = DAG()
        seen = [dag.version]

        def bumped():
            assert dag.version > seen[-1]
            seen.append(dag.version)

        a = dag.add_node("wire")
        bumped()
        b = dag.add_node("fifo")
        bumped()
        edge = dag.add_edge(a, b)
        bumped()
        dag.restore_edge(edge.uid + 5, b, a, 0, width=8)
        bumped()
        dag.remove_edge(edge)
        bumped()
        dag.remove_node(b)            # with an edge left on it
        bumped()
        dag.remove_node(a)            # with none
        bumped()
        dag.restore_node(Primitive(10, "wire"))
        bumped()

    def test_queries_and_attribute_writes_do_not(self):
        dag = DAG()
        a, b = dag.add_node("wire"), dag.add_node("add", pins=("a", "b"))
        edge = dag.add_edge(a, b)
        version = dag.version
        dag.in_edges(b), dag.out_edges(a), list(dag.edges), dag.stats()
        dag.topo_order(), dag.topo_order(sequential_break=False)
        dag.topo_order(edge_filter=lambda e: True)
        dag.validate()
        edge.width, edge.el = 3, 2
        dag.nodes[b].width = 9
        dag.nodes[b].params["depth"] = 4
        assert dag.version == version

    def test_topo_order_memo_hands_out_copies(self):
        dag = DAG()
        a, b = dag.add_node("wire"), dag.add_node("wire")
        dag.add_edge(a, b)
        order = dag.topo_order()
        order.reverse()
        assert dag.topo_order() == [a, b]
        c = dag.add_node("wire")
        dag.add_edge(c, a)
        assert dag.topo_order() == [c, a, b]

    def test_a_memoized_cycle_still_raises(self):
        dag = DAG()
        a, b = dag.add_node("wire"), dag.add_node("wire")
        dag.add_edge(a, b)
        dag.add_edge(b, a)
        for _ in range(2):
            with pytest.raises(ValueError, match="combinational cycle"):
                dag.topo_order()


class TestMutatorsRejectMisuse:
    def _pair(self):
        dag = DAG()
        a, b = dag.add_node("wire"), dag.add_node("wire")
        return dag, a, b, dag.add_edge(a, b)

    def test_remove_edge_twice(self):
        dag, _a, _b, edge = self._pair()
        dag.remove_edge(edge)
        with pytest.raises(ValueError, match="not an edge of this DAG"):
            dag.remove_edge(edge)

    def test_remove_foreign_edge(self):
        """An equal-looking edge of another graph is not this graph's."""
        dag, _a, _b, _edge = self._pair()
        _other, _x, _y, twin = self._pair()
        with pytest.raises(ValueError, match="not an edge of this DAG"):
            dag.remove_edge(twin)
        assert len(dag.edges) == 1

    def test_restore_edge_duplicate_uid(self):
        dag, a, b, edge = self._pair()
        with pytest.raises(ValueError, match="duplicate edge uid"):
            dag.restore_edge(edge.uid, b, a, 0, width=8)

    def test_restore_edge_checks_endpoints(self):
        dag, a, _b, _edge = self._pair()
        with pytest.raises(KeyError):
            dag.restore_edge(7, a, 999, 0, width=8)

    def test_remove_missing_node(self):
        dag, _a, _b, _edge = self._pair()
        with pytest.raises(KeyError):
            dag.remove_node(999)


class TestValidate:
    def _chain(self):
        dag = DAG()
        src = dag.add_node("ctrl")
        mid = dag.add_node("add", pins=("a", "b"))
        sink = dag.add_node("mem_write", pins=("addr", "data"))
        dag.add_edge(src, mid, 0)
        dag.add_edge(mid, sink, 1)
        dag.validate()
        return dag, src, mid, sink

    def test_dangling_endpoint(self):
        dag, _src, mid, _sink = self._chain()
        del dag.nodes[mid]            # what reduction.py used to hand-write
        with pytest.raises(ValueError):
            dag.validate()

    def test_two_drivers_on_one_pin(self):
        dag, src, mid, _sink = self._chain()
        dag.add_edge(src, mid, 0)
        with pytest.raises(ValueError, match="two drivers"):
            dag.validate()

    def test_rewritten_endpoint(self):
        dag, src, _mid, sink = self._chain()
        dag.in_edges(sink)[0].src = src
        with pytest.raises(ValueError, match="adjacency index"):
            dag.validate()

    def test_index_out_of_step_with_edge_set(self):
        dag, src, _mid, _sink = self._chain()
        dag._out[src].clear()
        with pytest.raises(ValueError, match="adjacency index"):
            dag.validate()


# ---------------------------------------------------------------------------
# memoized analyses at every pass boundary
# ---------------------------------------------------------------------------

#: where run_backend's passes are looked up, as (module, name)
PASS_ENTRY_POINTS = [
    ("repro.backend.passes", "infer_bitwidths"),
    ("repro.backend.passes", "extract_reduction_trees"),
    ("repro.backend.passes", "delay_match"),
    ("repro.backend.passes", "power_gate"),
    ("repro.backend.rewiring", "delay_match"),
    ("repro.backend.rewiring", "rewire_broadcasts"),
]
BOUNDARIES = {
    "default": ["infer_bitwidths", "extract_reduction_trees",
                "infer_bitwidths", "delay_match", "rewire_broadcasts",
                "delay_match", "power_gate"],
    "baseline": ["infer_bitwidths", "delay_match"],
}


def assert_memos_are_fresh(design: Design) -> None:
    compute_liveness(design)      # what a pass does before reading them
    fresh = Design(adg=design.adg, dag=rebuilt(design.dag),
                   configs=copy.deepcopy(design.configs))
    compute_liveness(fresh)
    for name, cfg in design.configs.items():
        assert cfg.active_nodes == fresh.configs[name].active_nodes
        assert cfg.active_edges == fresh.configs[name].active_edges
    for brk in (True, False):
        assert design.dag.topo_order(brk) == fresh.dag.topo_order(brk)


class TestMemosAtPassBoundaries:
    @pytest.mark.parametrize("options", list(OPTIONS))
    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_memoized_analyses_equal_fresh_ones(self, kernel, options,
                                                monkeypatch):
        seen = []

        def checked(run, name):
            def boundary(design, *args, **kwargs):
                result = run(design, *args, **kwargs)
                seen.append(name)
                assert_memos_are_fresh(design)
                return result
            return boundary

        for module, name in PASS_ENTRY_POINTS:
            owner = importlib.import_module(module)
            monkeypatch.setattr(owner, name,
                                checked(getattr(owner, name), name))
        request = DesignRequest(array=(4, 4), **KERNELS[kernel])
        design = generate(build_adg(request.build_dataflows(),
                                    request.frontend))
        assert_memos_are_fresh(design)
        run_backend(design, OPTIONS[options])
        assert seen == BOUNDARIES[options]


# ---------------------------------------------------------------------------
# structural guard: adjacency has one owner
# ---------------------------------------------------------------------------

PRIVATE = {name for name in vars(DAG()) if name.startswith("_")}


def _is_attr(node, *names) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in names


def _iterates_edges(node) -> bool:
    """``X.edges`` or a one-argument wrapper of it (``list(X.edges)``)."""
    if isinstance(node, ast.Call) and len(node.args) == 1:
        node = node.args[0]
    return _is_attr(node, "edges")


def _endpoint_equality(test, var: str) -> bool:
    for cmp in ast.walk(test):
        if isinstance(cmp, ast.Compare) and any(
                isinstance(op, ast.Eq) for op in cmp.ops):
            for side in (cmp.left, *cmp.comparators):
                if (_is_attr(side, "src", "dst")
                        and isinstance(side.value, ast.Name)
                        and side.value.id == var):
                    return True
    return False


def adjacency_violations(source: str) -> list[str]:
    found = []

    def flag(node, what):
        found.append(f"line {node.lineno}: {what}")

    for node in ast.walk(ast.parse(source)):
        if _is_attr(node, *PRIVATE):
            flag(node, f"touches DAG.{node.attr}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _is_attr(node.func.value, "edges")):
            flag(node, f"calls .edges.{node.func.attr}()")
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (node.targets if not isinstance(node, ast.AugAssign)
                       else [node.target])
            for target in targets:
                if _is_attr(target, "edges"):
                    flag(node, "rebinds .edges")
                if (isinstance(target, ast.Subscript)
                        and _is_attr(target.value, "edges")):
                    flag(node, "writes through .edges[...]")
                if (isinstance(node, ast.Delete)
                        and isinstance(target, ast.Subscript)
                        and _is_attr(target.value, "nodes")):
                    flag(node, "deletes from .nodes (use DAG.remove_node)")
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            for gen in node.generators:
                if (_iterates_edges(gen.iter)
                        and isinstance(gen.target, ast.Name)
                        and any(_endpoint_equality(cond, gen.target.id)
                                for cond in gen.ifs)):
                    flag(node, "filters .edges by endpoint "
                               "(use DAG.in_edges/out_edges)")
        if (isinstance(node, ast.For) and _iterates_edges(node.iter)
                and isinstance(node.target, ast.Name)):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.If)
                        and _endpoint_equality(inner.test, node.target.id)):
                    flag(inner, "scans .edges for an endpoint "
                                "(use DAG.in_edges/out_edges)")
    return found


class TestAdjacencyHasOneOwner:
    @pytest.mark.parametrize("snippet", [
        "dag.edges.append(edge)",
        "dag._next_edge_uid = max(dag._next_edge_uid, edge.uid + 1)",
        "del dag.nodes[reducer]",
        "outs = [e for e in dag.edges if e.src == src]",
        "ins = [e for e in design.dag.edges if nid == e.dst and e.uid in live]",
        "for e in list(dag.edges):\n"
        "    if e.dst == reducer or e.src == reducer:\n"
        "        dag.remove_edge(e)",
        "for e in dag.edges:\n"
        "    if e.dst == nid and e.dst_pin == pin_idx:\n"
        "        return_ = edge_sig[e.uid]",
        "dag.edges = []",
        "dag.edges[0] = edge",
    ])
    def test_guard_catches_the_old_idioms(self, snippet):
        assert adjacency_violations(snippet)

    @pytest.mark.parametrize("snippet", [
        "for e in dag.edges:\n    total += e.el * e.width",
        "fan = {e.src for e in dag.edges if e.src in fifo_nodes}",
        "outs = dag.out_edges(src)\ndag.remove_node(nid)",
        "n = len(dag.edges)",
    ])
    def test_guard_allows_whole_graph_walks(self, snippet):
        assert not adjacency_violations(snippet)

    def test_no_module_but_dag_py_owns_adjacency(self):
        offenders = {}
        for path in sorted(SRC.rglob("*.py")):
            if path == OWNER:
                continue
            found = adjacency_violations(path.read_text())
            if found:
                offenders[str(path.relative_to(SRC))] = found
        assert not offenders, (
            "adjacency is owned by backend/dag.py; go through DAG methods:\n"
            + "\n".join(f"  {p}: {v}" for p, v in offenders.items()))
