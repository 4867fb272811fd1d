"""Emitter backends: one scheduled DAG, many target languages.

The generator flow (frontend -> codegen -> §V passes) ends in a
:class:`~repro.backend.codegen.Design`; everything after that point is a
*backend family* decision.  A family turns the finished design into a
set of named text artifacts — structural Verilog today, HLS-style C —
without the service layer knowing anything beyond the family's name.

The names, descriptions and artifact suffixes are the request
vocabulary's table, :data:`repro.options.BACKENDS`; this package holds
the emitter behind each name, an object whose
``emit(design, module_name=..., context=None)`` returns ``{artifact
filename: text}``.  The first entry is the *primary* artifact;
*context* is the staged pipeline's :class:`EmitContext`.  Adding a
family is a row in that table plus such a class in :data:`_FAMILIES`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..options import backend_names
from .hls_c import HlsCFamily
from .verilog import VerilogFamily

__all__ = ["EmitContext", "get_backend"]


@dataclass
class EmitContext:
    """What the staged pipeline offers a family at emission time: every
    family's ``emit`` receives one as its ``context`` keyword (``None``
    outside the staged pipeline).

    ``request`` carries the emission-phase knobs
    (``options.emit_testbench``); ``cache`` and the phase keys let a
    family reuse content-addressed intermediates — most importantly the
    golden simulation vectors, so emitting the same scheduled design
    twice (another module name, a second sweep) never re-runs the
    simulator.
    """

    cache: object | None = None
    request: object | None = None
    design_key: str | None = None

    def want_testbench(self) -> bool:
        options = getattr(self.request, "options", None)
        return getattr(options, "emit_testbench", True)

    def golden_vectors(self, design, dataflow: str):
        """``(input tensors, golden outputs, cycles)`` of *dataflow*
        under the canonical testbench stimulus, served from the
        sim-phase cache when possible (and stored there after a cold
        run)."""
        import numpy as np

        from ..obs import PHASE_SIM, trace_span
        from ..sim import dag_sim

        key = None
        if self.cache is not None and self.request is not None:
            key = self.request.sim_key(dataflow)
            record = self.cache.get_phase(PHASE_SIM, key)
            if (isinstance(record, dict)
                    and record.get("kind") == "phase-sim-v1"):
                decode = lambda block: {  # noqa: E731 — local shorthand
                    name: np.array(spec["data"], dtype=np.int64)
                    .reshape(spec["shape"])
                    for name, spec in block.items()}
                return (decode(record["tensors"]),
                        decode(record["outputs"]),
                        int(record["cycles"]))
        with trace_span(PHASE_SIM, dataflow=dataflow) as span:
            tensors, outputs, cycles = dag_sim.golden_vectors(
                design, dataflow, span=span)
        if key is not None:
            encode = lambda block: {  # noqa: E731 — local shorthand
                name: {"shape": list(np.asarray(arr).shape),
                       "data": [int(v) for v in
                                np.asarray(arr).reshape(-1)]}
                for name, arr in block.items()}
            self.cache.put_phase(PHASE_SIM, key, {
                "kind": "phase-sim-v1",
                "tensors": encode(tensors),
                "outputs": encode(outputs),
                "cycles": cycles})
        return tensors, outputs, cycles


#: The emitter of every name in :data:`repro.options.BACKENDS`.
_FAMILIES = {"hls_c": HlsCFamily(), "verilog": VerilogFamily()}


def get_backend(name: str):
    """The emitter of family *name*; unknown names report the vocabulary
    (mirroring ``SUPPORTED_KERNELS`` diagnostics)."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; expected one of "
                         f"{backend_names()}") from None
