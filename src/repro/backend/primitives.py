"""Hardware primitives — the node vocabulary of the detailed architecture
graph (paper §V, Fig. 7).

The DAG opens the FU black boxes: multipliers, adders, muxes, FIFOs,
reducers, the (single, shared) control counter chain, per-data-node address
generators, and memory ports.  Each primitive declares its internal latency
``L`` (cycles from aligned inputs to output) used by delay matching, and
the area/energy model keys used by :mod:`repro.sim.energy_model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Primitive", "PRIMITIVE_LATENCY", "DEFAULT_WIDTH", "MAX_WIDTH"]

DEFAULT_WIDTH = 8
MAX_WIDTH = 48

#: Internal latency in cycles per primitive kind.  Combinational
#: primitives (mux, wire) have zero latency; arithmetic is single-cycle;
#: the reducer's latency depends on its input count (set per node).
PRIMITIVE_LATENCY = {
    "const": 0,
    "ctrl": 0,        # global control counter chain (cycle/timestamp source)
    "ctrl_tap": 0,    # per-FU tap of the propagated control signals
    "addrgen": 1,     # timestamp -> address matrix multiply
    "mem_read": 1,    # L1 bank read port
    "mem_write": 0,   # L1 bank write port (sink)
    "mul": 1,
    "add": 1,
    "sub": 1,
    "shl": 0,
    "shr": 0,
    "max": 1,
    "mux": 0,
    "fifo": 0,        # latency = programmed depth, carried on the edge
    "reducer": 0,     # set per node: ceil(log2(n_inputs))
    "wire": 0,
    "lut": 1,         # PPU lookup table
    "output": 0,      # top-level observation point (zero-cost sink)
}


@dataclass(slots=True)
class Primitive:
    """One DAG node.

    ``pins`` orders the input pin names; edges reference pins by index.
    ``params`` holds kind-specific data: affine matrices for ``addrgen``,
    per-dataflow select maps for ``mux``, per-dataflow depths for
    ``fifo``, input counts for ``reducer``, tensor names for memory ports.
    ``width`` is the output bit-width (filled by bit-width inference).
    """

    node_id: int
    kind: str
    pins: tuple[str, ...] = ()
    width: int = DEFAULT_WIDTH
    latency: int | None = None
    params: dict = field(default_factory=dict)
    #: free-form placement tag: FU coordinate for array primitives, or a
    #: subsystem label ("control", "memory") — used by spatial-adjacency
    #: heuristics (broadcast rewiring) and by reporting.
    place: tuple | str | None = None

    def __post_init__(self) -> None:
        if self.kind not in PRIMITIVE_LATENCY:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        if self.latency is None:
            self.latency = PRIMITIVE_LATENCY[self.kind]

    @property
    def is_source(self) -> bool:
        return self.kind in ("const", "ctrl")

    @property
    def is_sink(self) -> bool:
        return self.kind in ("mem_write", "output")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind}#{self.node_id} w={self.width} @{self.place}>"
