"""The request vocabulary: what a design request can say, stdlib only.

A :class:`~repro.service.spec.DesignRequest` names a kernel, its
dataflows, the front-end tunables (:class:`FrontendConfig`), which §V
optimizations run (:class:`BackendOptions`) and the emitter family that
prints the result (:data:`BACKENDS`).  Serving processes — ``repro
serve``'s parent, ``repro route``, the CLI's parser — validate, hash and
describe requests without compiling one, so these values live here,
where importing them loads neither numpy nor the generator.  The
generator re-exports both classes (``repro.backend``,
``repro.core.frontend``); the emitters themselves are
:mod:`repro.backends`, keyed by the same names.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

__all__ = ["BackendOptions", "FrontendConfig", "Backend", "BACKENDS",
           "DEFAULT_BACKEND", "backend_names", "backends_info"]


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


@dataclass(frozen=True)
class FrontendConfig:
    """Tunables of the front-end analysis.

    ``max_dist`` is the spatial search window ``d_S`` of Eq. 6/7.
    ``memory_fetch_cost`` is the MST cost of feeding an FU directly from
    memory (address-generator + switch port, in register equivalents) —
    reuse edges cheaper than this win; absurdly deep FIFOs lose.
    ``fuse_heuristic`` toggles §IV-C planning (False = naive merge, the
    Table V baseline).
    """

    max_dist: int = 1
    memory_fetch_cost: int = 16
    fuse_heuristic: bool = True


class Backend(NamedTuple):
    """One emitter family as requests and listings see it."""

    description: str
    #: artifact filename suffixes after the module name; the first names
    #: the *primary* artifact (what ``repro generate -o`` writes)
    suffixes: tuple[str, ...]


#: Every emitter family by name, sorted; :mod:`repro.backends` holds an
#: emitter for each.  The name is hashed into the request, so cache
#: entries never collide across families.
BACKENDS = {
    "hls_c": Backend(
        "behavioural HLS-style C: per-dataflow cycle loops with baked mux "
        "selects / FIFO delay lines / affine address kernels, "
        "PIPELINE+UNROLL pragmas, and a self-checking C testbench from "
        "simulator vectors", (".c", "_tb.c")),
    "verilog": Backend(
        "flat structural Verilog: one module, per-primitive blocks, "
        "delay-matched pipeline chains, programmable FIFO shift registers",
        (".v",)),
}

#: The family a request names when it does not say otherwise.
DEFAULT_BACKEND = "verilog"


def backend_names() -> tuple[str, ...]:
    """Family names, sorted for stable listings."""
    return tuple(BACKENDS)


def backends_info() -> list[dict]:
    """JSON-ready description of every family (the payload of ``GET
    /backends`` and the ``repro backends`` listing)."""
    shared = {f.name: {"type": f.type, "default": f.default}
              for f in fields(BackendOptions)}
    return [{"name": name,
             "description": family.description,
             "suffix": family.suffixes[0],
             "artifacts": ["<module>" + s for s in family.suffixes],
             "options": shared}
            for name, family in BACKENDS.items()]
