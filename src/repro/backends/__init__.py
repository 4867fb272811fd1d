"""Pluggable emitter backends: one scheduled DAG, many target languages.

The generator flow (frontend -> codegen -> §V passes) ends in a
:class:`~repro.backend.codegen.Design`; everything after that point is a
*backend family* decision.  A family turns the finished design into a
set of named text artifacts — structural Verilog today, HLS-style C, and
whatever comes next (CIRCT/FIRRTL, SystemC) — without the service layer
knowing anything beyond the family's name.

A family implements the :class:`BackendFamily` protocol:

``name``
    registry key; also the value of ``DesignRequest.backend`` and part
    of the request's content hash (so cache entries never collide
    across families).
``emit(design, module_name=..., context=None)``
    finished design -> ``{artifact filename: text}``.  The first entry
    is the *primary* artifact (what ``repro generate -o`` writes);
    *context* is the staged pipeline's :class:`EmitContext`.
``validate(options)``
    reject a :class:`~repro.backend.passes.BackendOptions` the family
    cannot honour; called at request-construction time so bad requests
    fail before they are hashed, queued, or cached.

Families register explicitly via :func:`register_backend`; the two
built-in families (``verilog``, ``hls_c``) are registered when this
package is imported.

>>> from repro.backends import backend_names, get_backend
>>> backend_names()
('hls_c', 'verilog')
>>> get_backend("verilog").suffix
'.v'
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Protocol, runtime_checkable

__all__ = ["BackendFamily", "EmitContext", "register_backend",
           "get_backend", "backend_names", "backends_info",
           "options_schema", "emit_artifacts", "DEFAULT_BACKEND"]

#: The family a request names when it does not say otherwise (hashed
#: into the request like any other family).
DEFAULT_BACKEND = "verilog"


@runtime_checkable
class BackendFamily(Protocol):
    """Structural interface every emitter family implements."""

    name: str
    description: str
    #: filename suffix of the primary artifact (".v", ".c", ...)
    suffix: str

    def validate(self, options) -> None:
        """Raise ``ValueError`` if *options* cannot be honoured."""

    def emit(self, design, module_name: str = "lego_top",
             context: EmitContext | None = None) -> dict[str, str]:
        """Lower *design* to ``{filename: text}``; first key is primary."""


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


def emit_artifacts(family: BackendFamily, design,
                   module_name: str = "lego_top",
                   context: EmitContext | None = None) -> dict[str, str]:
    """Emit through *family* with the staged-pipeline *context*."""
    return family.emit(design, module_name=module_name, context=context)


_REGISTRY: dict[str, BackendFamily] = {}


def register_backend(family: BackendFamily, replace: bool = False) -> None:
    """Add *family* to the registry under ``family.name``.

    Registration is explicit and collision-checked: re-registering a
    name is an error unless ``replace=True`` (tests swapping in fakes).
    """
    if not isinstance(family, BackendFamily):
        raise TypeError(f"{family!r} does not implement BackendFamily")
    if family.name in _REGISTRY and not replace:
        raise ValueError(f"backend family {family.name!r} is already "
                         f"registered; pass replace=True to override")
    _REGISTRY[family.name] = family


def get_backend(name: str) -> BackendFamily:
    """Look a family up by name; unknown names report what *is*
    registered (mirroring ``SUPPORTED_KERNELS`` diagnostics)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r}; expected one of "
                         f"{backend_names()}") from None


def backend_names() -> tuple[str, ...]:
    """Registered family names, sorted for stable listings."""
    return tuple(sorted(_REGISTRY))


def options_schema() -> dict:
    """Field name -> {type, default} of the shared
    :class:`~repro.backend.passes.BackendOptions` every family receives."""
    from ..backend import BackendOptions

    return {f.name: {"type": f.type if isinstance(f.type, str)
                     else f.type.__name__,
                     "default": f.default}
            for f in fields(BackendOptions)}


def backends_info() -> list[dict]:
    """JSON-ready description of every registered family (the payload of
    ``GET /backends`` and the ``repro backends`` listing)."""
    shared = options_schema()
    out = []
    for name in backend_names():
        family = _REGISTRY[name]
        out.append({
            "name": family.name,
            "description": family.description,
            "suffix": family.suffix,
            "artifacts": list(getattr(family, "artifact_names",
                                      lambda m: [m + family.suffix])
                              ("<module>")),
            "options": shared,
        })
    return out


# -- built-in families (explicit registration, import order safe) -----------

from .verilog import VerilogFamily  # noqa: E402
from .hls_c import HlsCFamily  # noqa: E402

register_backend(VerilogFamily())
register_backend(HlsCFamily())

from .._builtin_backends import BUILTIN_BACKENDS  # noqa: E402

assert backend_names() == BUILTIN_BACKENDS, (
    "repro/_builtin_backends.py (the CLI's --backend choices) must name "
    f"exactly the families registered here: {backend_names()}")
