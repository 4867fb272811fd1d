"""Bit-width inference against the round-by-round algorithm it replaced.

``infer_bitwidths`` makes one pass in the full topological order (FIFO
edges included) whenever that order exists, and iterates rounds only on
a graph cyclic through FIFOs.  :func:`reference_infer_bitwidths` is a
frozen copy of the rounds-only implementation; every node and edge width
must agree with it:

* on every golden kernel at 4x4 after ``generate`` (the only call under
  ``BackendOptions.baseline()``, and the first under the default
  options) and after reduction extraction (the default's second call);
* on the six ``cold_compile`` configs at 8x8/12x12, where accumulation
  chains are 8 and 12 adders deep (9 and 13 rounds for the reference);
* on hypothesis-drawn graphs with FIFO chains, acyclic and cyclic.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import generate
from repro.backend.codegen import Design
from repro.backend.dag import DAG
from repro.backend.passes import infer_bitwidths
from repro.backend.primitives import MAX_WIDTH
from repro.backend.reduction import extract_reduction_trees
from repro.core.frontend import build_adg
from repro.service.spec import DesignRequest

from test_golden_identity import ADG_CASES, IR_CASES, KERNELS


def reference_infer_bitwidths(design: Design) -> dict[str, int]:
    """The round-by-round fixpoint, frozen: every round visits the nodes
    in topological order with FIFO outputs broken, so a width crosses
    one FIFO per round, and a repeated width vector raises."""
    dag = design.dag
    order = dag.topo_order(sequential_break=True)
    seen: set[tuple[int, ...]] = set()
    changed, rounds = True, 0
    while changed:
        changed = False
        rounds += 1
        for nid in order:
            node = dag.nodes[nid]
            ins = dag.in_edges(nid)
            in_w = [dag.nodes[e.src].width for e in ins]
            w = node.width
            if node.kind == "const":
                value = abs(int(node.params.get("value", 0)))
                w = max(1, value.bit_length())
            elif node.kind == "mul" and len(in_w) >= 2:
                w = in_w[0] + in_w[1]
            elif node.kind in ("add", "sub", "max") and in_w:
                w = max(in_w) + 1
            elif node.kind == "shl" and in_w:
                shift_max = (1 << min(in_w[1] if len(in_w) > 1 else 0, 4)) - 1
                w = in_w[0] + shift_max
            elif node.kind == "reducer" and in_w:
                w = max(in_w) + max(1, math.ceil(
                    math.log2(max(node.params.get("n_inputs", 2), 2))))
            elif node.kind in ("mux", "wire", "fifo") and in_w:
                w = max(in_w)
            elif node.kind == "mem_write" and in_w:
                w = max(in_w)
            w = min(w, MAX_WIDTH)
            if w != node.width:
                node.width = w
                changed = True
        for e in dag.edges:
            src_w = dag.nodes[e.src].width
            if e.width != src_w:
                e.width = src_w
                changed = True
        widths = tuple(node.width for node in dag.nodes.values())
        if changed and widths in seen:
            raise RuntimeError(
                f"bit-width inference cycles without a fixpoint after "
                f"{rounds} rounds ({len(dag.nodes)} nodes)")
        seen.add(widths)
    return {"rounds": rounds}


def widths(dag: DAG) -> tuple[list, list]:
    return ([(nid, n.width) for nid, n in dag.nodes.items()],
            [(e.uid, e.width) for e in dag.edges])


def assert_agrees_with_reference(design: Design) -> None:
    """Infer *design*'s widths, and the reference's on a copy of it."""
    oracle = copy.deepcopy(design)
    reference_infer_bitwidths(oracle)
    infer_bitwidths(design)
    assert widths(design.dag) == widths(oracle.dag)


def check_pipeline(request: DesignRequest) -> None:
    design = generate(build_adg(request.build_dataflows(), request.frontend))
    assert_agrees_with_reference(design)
    if extract_reduction_trees(design)["chains_extracted"]:
        assert_agrees_with_reference(design)


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_golden_kernels_at_4x4(kernel):
    check_pipeline(DesignRequest(array=(4, 4), **KERNELS[kernel]))


@pytest.mark.parametrize("label", IR_CASES)
def test_cold_compile_configs_at_full_scale(label):
    check_pipeline(DesignRequest(**ADG_CASES[label]))


# ---------------------------------------------------------------------------
# drawn graphs
# ---------------------------------------------------------------------------

KINDS = ("const", "ctrl", "mem_read", "addrgen", "mul", "add", "sub", "max",
         "shl", "reducer", "mux", "wire", "fifo", "mem_write", "lut")


@st.composite
def graphs(draw, cyclic: bool) -> Design:
    """Random nodes with forward edges, plus a FIFO-linked accumulation
    chain (add -> fifo -> add -> ...) fed by the random part; *cyclic*
    closes the chain into a ring through its last FIFO."""
    dag = DAG()
    n = draw(st.integers(1, 10))
    for _ in range(n):
        kind = draw(st.sampled_from(KINDS))
        dag.add_node(kind, width=draw(st.integers(1, MAX_WIDTH + 8)),
                     params={"value": draw(st.integers(-300, 300)),
                             "n_inputs": draw(st.integers(1, 9))})
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = sorted(draw(st.tuples(st.integers(0, n - 1),
                                     st.integers(0, n - 1))))
        if i != j:
            dag.add_edge(i, j, draw(st.integers(0, 2)))
    adders, fifos = [], []
    for _ in range(draw(st.integers(1, 5))):
        adders.append(dag.add_node("add", width=draw(st.integers(1, 16))))
        dag.add_edge(draw(st.integers(0, n - 1)), adders[-1], 0)
        if fifos:
            dag.add_edge(fifos[-1], adders[-1], 1)
        fifos.append(dag.add_node("fifo", width=draw(st.integers(1, 16))))
        dag.add_edge(adders[-1], fifos[-1])
    if cyclic:
        dag.add_edge(fifos[-1], adders[0], 1)
    return Design(adg=None, dag=dag, configs={})


def assert_same_outcome(design: Design) -> None:
    oracle = copy.deepcopy(design)
    try:
        expected = reference_infer_bitwidths(oracle)
    except RuntimeError:
        with pytest.raises(RuntimeError, match="without a fixpoint"):
            infer_bitwidths(design)
        return
    got = infer_bitwidths(design)
    assert widths(design.dag) == widths(oracle.dag)
    if got["rounds"] != 1:   # the cyclic fallback is the same loop
        assert got == expected


@given(graphs(cyclic=False))
@settings(max_examples=150, deadline=None)
def test_drawn_acyclic_graphs(design):
    design.dag.topo_order(sequential_break=False)   # one pass applies
    assert_same_outcome(design)


@given(graphs(cyclic=True))
@settings(max_examples=150, deadline=None)
def test_drawn_graphs_cyclic_through_fifos(design):
    with pytest.raises(ValueError):
        design.dag.topo_order(sequential_break=False)
    assert_same_outcome(design)
