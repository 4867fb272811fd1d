"""Pass manager and the remaining DAG transformation passes (§V-D):
bit-width inference and power gating, plus the canonical pass pipeline.

The pipeline order matters: widths must be known before delay matching
(register cost is bits, Eq. 11); reduction extraction must precede
rewiring (it removes adder chains the LP would otherwise pipeline); power
gating is last (it only annotates).

§V-C pin reuse (Fig. 9) has no pass here: reduction extraction makes
every pin of a reducer live in the same dataflows, so no reducer ever has
pins that two dataflows could share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codegen import Design, compute_liveness
from .delay_matching import delay_match
from .primitives import MAX_WIDTH
from .reduction import extract_reduction_trees
from .rewiring import run_rewiring

__all__ = ["BackendOptions", "infer_bitwidths", "power_gate", "run_backend"]


@dataclass(frozen=True, kw_only=True)
class BackendOptions:
    """Which optional §V optimizations to run.  Delay matching itself is
    mandatory (the design does not meet timing without it, Fig. 10).
    Keyword-only, so a field added or removed never shifts the meaning
    of another.

    ``emit_testbench`` is an *emission-phase* knob, not a scheduling
    one: families with companion self-checking testbench artifacts
    (``hls_c`` today) skip them when it is False, so bulk sweeps only
    pay for the kernel.  It does not affect the scheduled design and is
    excluded from the design-phase cache key.
    """

    reduction_tree: bool = True
    rewiring: bool = True
    power_gating: bool = True
    emit_testbench: bool = True

    @staticmethod
    def baseline() -> "BackendOptions":
        """Delay matching only — the Fig. 10/13/14 comparison baseline."""
        return BackendOptions(reduction_tree=False, rewiring=False,
                              power_gating=False)


def infer_bitwidths(design: Design) -> dict[str, int]:
    """Propagate value-range-derived widths through the DAG to their
    fixpoint (§V-D).

    A round visits the nodes in topological order with FIFO outputs
    broken, so a width crosses one FIFO per round: a systolic
    accumulation chain of ``n`` adders needs ``n + 1`` rounds, the last
    one confirming that nothing changed.

    Termination: a round is a function of the node widths the previous
    round left, and every width a round assigns is an integer between 1
    (or the narrowest starting width) and ``MAX_WIDTH``, so there are
    finitely many width vectors and the sequence repeats.  A repeat is
    either a round that changes nothing — the fixpoint, returned — or a
    cycle of rounds that never settles (a ring of FIFOs seeded with
    unequal widths rotates them forever), which raises instead of
    looping.
    """
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


def power_gate(design: Design) -> dict[str, int]:
    """Add clock-enable gating to connections unused by some dataflows
    (§V-D).  Purely annotative: the energy model suppresses the toggle
    power of gated primitives when their dataflow is inactive."""
    compute_liveness(design)
    dag = design.dag
    n_gated = 0
    all_dfs = set(design.configs)
    for nid, node in dag.nodes.items():
        if node.kind not in ("fifo", "mul", "add", "reducer", "shl"):
            continue
        active_in = {name for name, cfg in design.configs.items()
                     if nid in cfg.active_nodes}
        if active_in and active_in != all_dfs:
            node.params["power_gated"] = True
            n_gated += 1
    return {"gated_nodes": n_gated}


def run_backend(design: Design,
                options: BackendOptions | None = None) -> Design:
    """Run the full backend pipeline in place; fills ``design.report``."""
    options = options or BackendOptions()
    report: dict = {"options": options}

    report["bitwidth"] = infer_bitwidths(design)

    if options.reduction_tree:
        report["reduction"] = extract_reduction_trees(design)
        # continues from the widths above, so this is the run that counts
        report["bitwidth"] = infer_bitwidths(design)

    if options.rewiring:
        report["rewiring"] = run_rewiring(design)
    else:
        report["delay_matching"] = delay_match(design)

    if options.power_gating:
        report["power_gating"] = power_gate(design)

    report["register_bits"] = (design.dag.pipeline_register_bits()
                               + design.dag.fifo_register_bits())
    report["dag_stats"] = design.dag.stats()
    design.dag.validate()
    design.report = report
    return design
