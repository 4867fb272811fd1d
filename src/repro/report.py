"""Human-readable reports of generated architectures.

Renders ADGs as per-tensor array topology diagrams (which FU feeds which,
where the data nodes sit), DAG statistics tables, and one-page design
summaries — the kind of output an accelerator-generation tool owes its
users before they commit to synthesis.
"""

from __future__ import annotations

import io

from .backend.codegen import Design
from .core.adg import ADG

__all__ = ["render_topology", "dag_summary", "design_summary"]

_ARROWS = {
    (0, 1): ">", (0, -1): "<", (1, 0): "v", (-1, 0): "^",
    (1, 1): "\\", (-1, -1): "\\", (1, -1): "/", (-1, 1): "/",
}


def render_topology(adg: ADG, tensor: str, dataflow: str | None = None) -> str:
    """ASCII diagram of one tensor's interconnect on a 2-D FU array.

    ``*`` marks data nodes (memory ports); arrows show the flow direction
    of each link; ``.`` is an FU without a port.
    """
    if len(adg.fu_shape) != 2:
        raise ValueError("topology rendering supports 2-D arrays")
    rows, cols = adg.fu_shape
    node_fus = {n.fu for n in adg.data_nodes_for(tensor, dataflow)}
    # Cell grid with gaps for the arrows.
    height, width = rows * 2 - 1, cols * 2 - 1
    grid = [[" "] * width for _ in range(height)]
    for r in range(rows):
        for c in range(cols):
            grid[2 * r][2 * c] = "*" if (r, c) in node_fus else "."
    for conn in adg.connections_for(tensor, dataflow):
        (r0, c0), (r1, c1) = conn.src, conn.dst
        dr, dc = r1 - r0, c1 - c0
        if max(abs(dr), abs(dc)) != 1:
            continue  # long link: annotate below instead
        mark = _ARROWS.get((dr, dc), "+")
        grid[2 * r0 + dr][2 * c0 + dc] = mark
    out = io.StringIO()
    title = f"{tensor}" + (f" under {dataflow}" if dataflow else "")
    out.write(f"tensor {title}: * = data node, arrows = links\n")
    for line in grid:
        out.write("  " + "".join(line).rstrip() + "\n")
    long_links = [c for c in adg.connections_for(tensor, dataflow)
                  if max(abs(a - b) for a, b in zip(c.src, c.dst)) > 1]
    for conn in long_links:
        out.write(f"  {conn.src} -> {conn.dst} (depth {conn.depth})\n")
    return out.getvalue()


def dag_summary(design: Design) -> str:
    """Primitive-count and register-cost table of a generated DAG."""
    stats = design.dag.stats()
    out = io.StringIO()
    out.write(f"{'primitive':14s}{'count':>8s}\n")
    for kind in sorted(k for k in stats
                       if k not in ("pipeline_register_bits",
                                    "fifo_register_bits", "n_edges")):
        out.write(f"{kind:14s}{stats[kind]:8d}\n")
    out.write(f"{'edges':14s}{stats['n_edges']:8d}\n")
    out.write(f"pipeline register bits: {stats['pipeline_register_bits']}\n")
    out.write(f"FIFO register bits:     {stats['fifo_register_bits']}\n")
    return out.getvalue()


def design_summary(design: Design) -> str:
    """One-page overview: dataflows, ADG stats, DAG stats, pass report."""
    out = io.StringIO()
    adg = design.adg
    out.write(f"LEGO design: {adg.n_fus} FUs ({'x'.join(map(str, adg.fu_shape))})\n")
    out.write(f"dataflows: {', '.join(df.name for df in adg.dataflows)}\n\n")
    out.write("front end (ADG):\n")
    for key, value in adg.stats().items():
        out.write(f"  {key:18s}{value:8d}\n")
    out.write("\nmemory layouts:\n")
    for tensor, layout in sorted(adg.memory.items()):
        out.write(f"  {tensor:6s} banks {layout.bank_shape} "
                  f"(stride {layout.bank_stride}, "
                  f"{layout.n_data_nodes} data nodes)\n")
    out.write("\nback end (DAG):\n")
    out.write(dag_summary(design))
    if design.report:
        out.write("\npass report:\n")
        for key in ("reduction", "rewiring", "power_gating",
                    "register_bits"):
            if key in design.report:
                out.write(f"  {key}: {design.report[key]}\n")
    return out.getvalue()
