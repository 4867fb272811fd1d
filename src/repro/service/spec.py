"""Canonical, hashable design requests and their results.

A :class:`DesignRequest` captures everything that determines a generated
design — kernel, dataflow set, FU array shape, workload bound overrides,
emitter backend family, backend options, and frontend tunables — in a
frozen dataclass with a deterministic JSON form.  Its SHA-256 content
hash is the identity under which the cache stores the finished result,
so two processes that build the same request always agree on the
address.

Every field, the ``backend`` family included, participates in the
canonical hash, so the same design emitted by two families lives at two
distinct cache addresses.

Besides the full spec hash, a request exposes **phase keys** for the
staged cold path (:func:`execute_request` with a cache):

``adg_key``
    identity of the front-end phase (dataflows → ADG) — everything
    except the backend passes and the emission knobs;
``design_key``
    identity of the scheduled design (ADG → §V passes) — the full
    request minus ``backend``/``module``/emission-only options, so two
    requests that differ only in emitter family or module name share
    one cached scheduled design;
``sim_key``
    identity of one dataflow's golden simulation vectors under the
    canonical testbench stimulus.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..backend import BackendOptions
from ..backends import DEFAULT_BACKEND, backend_names, get_backend
from ..core.frontend import FrontendConfig
from ..obs import (PHASE_ADG, PHASE_DESIGN, PHASE_DESIGN_LOAD, PHASE_EMIT,
                   PHASE_SCHEDULE, timed_phase, trace_span)
from ..serialize import canonical_dumps

if TYPE_CHECKING:
    from .cache import DesignCache

__all__ = ["DesignRequest", "DesignResult", "execute_request",
           "SUPPORTED_KERNELS"]

SUPPORTED_KERNELS = ("gemm", "conv2d", "mttkrp", "attention")


@dataclass(frozen=True)
class DesignRequest:
    """One fully-specified generation job.

    ``bounds`` overrides the array-derived workload bounds by dimension
    name (e.g. ``(("k", 32),)`` for GEMM); it is kept as a sorted tuple
    of pairs so equal requests hash equally regardless of the order the
    caller supplied them in.
    """

    kernel: str = "gemm"
    dataflows: tuple[str, ...] = ("KJ",)
    array: tuple[int, int] = (8, 8)
    systolic: bool = True
    bounds: tuple[tuple[str, int], ...] = ()
    options: BackendOptions = field(default_factory=BackendOptions)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    module: str = "lego_top"
    backend: str = DEFAULT_BACKEND

    def __post_init__(self):
        object.__setattr__(self, "dataflows", tuple(self.dataflows))
        object.__setattr__(self, "array", tuple(self.array))
        if isinstance(self.bounds, dict):
            items = self.bounds.items()
        else:
            items = self.bounds
        object.__setattr__(
            self, "bounds",
            tuple(sorted((str(k), int(v)) for k, v in items)))
        if self.kernel not in SUPPORTED_KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}; "
                             f"expected one of {SUPPORTED_KERNELS}")
        if self.backend not in backend_names():
            raise ValueError(f"unknown backend {self.backend!r}; "
                             f"expected one of {backend_names()}")
        # Families reject options they cannot honour *before* the
        # request is hashed, queued, or cached.
        get_backend(self.backend).validate(self.options)
        if self.kernel == "attention":
            # The attention dataflow pair is fixed (QK then PV, §II);
            # normalize so equal designs hash equally whatever the
            # caller passed in `dataflows`.
            object.__setattr__(self, "dataflows", ("QK", "PV"))
        if len(self.array) != 2 or any(p < 1 for p in self.array):
            raise ValueError(f"array must be two positive ints, "
                             f"got {self.array!r}")

    # -- canonical form ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": "lego-request-v1",
            "kernel": self.kernel,
            "dataflows": list(self.dataflows),
            "array": list(self.array),
            "systolic": self.systolic,
            "bounds": {k: v for k, v in self.bounds},
            # a frozen dataclass's __dict__ is its fields, in order
            "options": dict(vars(self.options)),
            "frontend": dict(vars(self.frontend)),
            "module": self.module,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignRequest":
        if data.get("format", "lego-request-v1") != "lego-request-v1":
            raise ValueError("not a LEGO design request")
        return cls(
            kernel=data["kernel"],
            dataflows=tuple(data["dataflows"]),
            array=tuple(data["array"]),
            systolic=data.get("systolic", True),
            bounds=tuple((k, v) for k, v in
                         sorted(data.get("bounds", {}).items())),
            options=BackendOptions(**data.get("options", {})),
            frontend=FrontendConfig(**data.get("frontend", {})),
            module=data.get("module", "lego_top"),
            backend=data.get("backend", DEFAULT_BACKEND),
        )

    def canonical_json(self) -> str:
        """Deterministic serialization — the hashed identity."""
        return canonical_dumps(self.to_dict())

    def _digest(self, name: str) -> str:
        """SHA-256 of one canonical form, memoized in ``__dict__`` under
        *name*: not a field, so ``==``/``hash()`` ignore it and
        ``dataclasses.replace`` starts afresh; pickle carries it."""
        memo = self.__dict__
        digest = memo.get(name)
        if digest is None:
            text = (self.canonical_json() if name == "_spec"
                    else self._phase_json(name[1:]))
            digest = memo[name] = hashlib.sha256(text.encode()).hexdigest()
        return digest

    def spec_hash(self) -> str:
        return self._digest("_spec")

    # -- phase keys (the staged cold path's intermediate addresses) --------

    def _phase_json(self, phase: str) -> str:
        data = self.to_dict()
        del data["backend"]   # emission decisions only
        del data["module"]
        if phase == "design":
            del data["options"]["emit_testbench"]
        else:
            del data["options"]  # backend passes happen after the ADG
        data["phase"] = phase
        return canonical_dumps(data)

    def adg_key(self) -> str:
        """Identity of the front-end phase (dataflows → ADG)."""
        return self._digest("_adg")

    def design_key(self) -> str:
        """Identity of the scheduled design (ADG → §V passes): shared
        by every request that differs only in emitter family, module
        name, or emission-only options."""
        return self._digest("_design")

    def sim_key(self, dataflow: str) -> str:
        """Identity of one dataflow's golden simulation vectors (the
        canonical testbench stimulus tag is part of the address, so a
        stimulus change can never be served stale vectors)."""
        from ..sim.dag_sim import CANONICAL_STIMULUS

        payload = {"phase": "sim", "design": self.design_key(),
                   "dataflow": dataflow,
                   "stimulus": CANONICAL_STIMULUS}
        return hashlib.sha256(
            canonical_dumps(payload).encode()).hexdigest()

    # -- workload construction --------------------------------------------

    def build_dataflows(self):
        """Materialize the workload + dataflow list this request names,
        mirroring (and replacing) the ad-hoc construction the CLI used."""
        from ..core import kernels
        from ..core.dataflow import Dataflow

        p0, p1 = self.array
        over = dict(self.bounds)

        def bound(name: str, default: int) -> int:
            return int(over.get(name, default))

        if self.kernel == "gemm":
            wl = kernels.gemm(bound("m", 4 * p0), bound("n", 4 * p1),
                              bound("k", 4 * max(p0, p1)))
            return [kernels.gemm_dataflow(k, wl, p0, p1,
                                          systolic=self.systolic)
                    for k in self.dataflows]
        if self.kernel == "conv2d":
            wl = kernels.conv2d(
                bound("n", 1), bound("oc", 2 * p0), bound("ic", 2 * p1),
                bound("oh", 2 * p0), bound("ow", 2 * p1),
                bound("kh", 3), bound("kw", 3))
            return [kernels.conv2d_dataflow(k, wl, p0, p1)
                    for k in self.dataflows]
        if self.kernel == "mttkrp":
            wl = kernels.mttkrp(bound("i", 4 * p0), bound("j", 4 * p1),
                                bound("k", 2 * p0), bound("l", 2 * p1))
            return [kernels.mttkrp_dataflow(k, wl, p0, p1,
                                            systolic=self.systolic)
                    for k in self.dataflows]
        # attention: the fused QK/PV contraction pair; the dataflow list
        # is fixed by the kernel (softmax runs on the PPU).
        heads = bound("h", 2)
        qk = kernels.attention_qk(heads, bound("q", 2 * p0),
                                  bound("k", 2 * p1), bound("d", 2 * p1))
        pv = kernels.attention_pv(heads, bound("q", 2 * p0),
                                  bound("k", 2 * p1), bound("d", 2 * p1))
        control = (1, 1) if self.systolic else (0, 0)
        return [
            Dataflow.build(qk, spatial=[("q", p0), ("k", p1)],
                           control=control, name="Attn-QK"),
            Dataflow.build(pv, spatial=[("q", p0), ("d", p1)],
                           control=control, name="Attn-PV"),
        ]


class _Design:
    """:attr:`DesignResult.design`: the tree the result holds, else
    resolved once through its cache by :func:`_build_scheduled_design`
    (the live tier, the phase record, or a rebuild if it was evicted)."""

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the field's default
        if result._design is None and result.ok:
            result._design = _build_scheduled_design(
                result.request, result.cache, {}, load=False)[1]
        return result._design

    def __set__(self, result, tree):
        result._design = tree


@dataclass
class DesignResult:
    """The finished (or failed) product of one :class:`DesignRequest`.

    Its cache record leaves out :attr:`design`: the phase record at
    ``request.design_key()`` holds it.  A result built here keeps its
    tree; one read from a record, or sent by a pool worker that has a
    cache, resolves it through :attr:`cache` when first asked."""

    spec_hash: str
    request: DesignRequest
    design: dict | None = _Design()  # the scheduled design's JSON tree
    #: the full artifact set, ``{filename: text}`` — first entry is the
    #: primary artifact, extra entries are companions (e.g. the HLS-C
    #: family's compilable testbench harness)
    artifacts: dict[str, str] = field(default_factory=dict)
    summary: str = ""
    elapsed_s: float = 0.0
    #: wall-clock seconds per staged phase of the *original* cold run
    #: (``adg``, ``schedule``, ``emit``, plus ``design_load`` when the
    #: scheduled design came from the intermediate cache — the
    #: :mod:`repro.obs.phases` vocabulary) — empty for records written
    #: before the pipeline was staged
    phases: dict[str, float] = field(default_factory=dict)
    from_cache: bool = False
    error: str | None = None
    #: full formatted traceback of the original failure (``error`` is
    #: just its last line) — preserved through the cache record and the
    #: serving job table so a batch's design #713 can be debugged from
    #: the client side.
    traceback: str | None = None
    cache: DesignCache | None = field(default=None, repr=False,
                                      compare=False)

    def __getstate__(self) -> dict:
        # A pool worker's reply; the receiver points it at its own cache
        # (engine.remember_built), which has the tree if the worker's did.
        state = dict(self.__dict__, cache=None)
        if self.cache is not None:
            state["_design"] = None
        return state

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def rtl(self) -> str:
        """Text of the *primary* (first) artifact: Verilog for the
        default family, the C translation unit for ``hls_c``."""
        return next(iter(self.artifacts.values()), "")

    def design_bytes(self) -> bytes:
        """Canonical byte form of the serialized design (for identity
        checks: equal designs compare byte-equal)."""
        return canonical_dumps(self.design).encode()

    def to_record(self) -> dict:
        return {
            "request": self.request.to_dict(),
            "artifacts": self.artifacts,
            "summary": self.summary,
            "elapsed_s": self.elapsed_s,
            "phases": self.phases,
            "error": self.error,
            "traceback": self.traceback,
        }

    def to_json(self, include_rtl: bool = False) -> dict:
        """The result record: the body of ``POST /generate``, each
        result of a ``/batch`` job, and what ``repro generate``/``repro
        batch`` print from, in-process or over ``--url``."""
        out = {"spec_hash": self.spec_hash,
               "ok": self.ok,
               "from_cache": self.from_cache,
               "elapsed_s": self.elapsed_s,
               "kernel": self.request.kernel,
               "dataflows": list(self.request.dataflows),
               "array": list(self.request.array),
               "backend": self.request.backend,
               "summary": self.summary,
               "error": self.error,
               "traceback": self.traceback}
        if include_rtl:
            out["rtl"] = self.rtl
            out["artifacts"] = self.artifacts
        return out

    @classmethod
    def from_record(cls, spec_hash: str, record: dict,
                    cache: DesignCache | None = None,
                    request: DesignRequest | None = None) -> "DesignResult":
        """A cached result whose design resolves through *cache* (a
        ``"design"`` older records embed is ignored); a caller that
        found it by *request*'s hash passes that request along."""
        return cls(spec_hash=spec_hash,
                   request=(request if request is not None else
                            DesignRequest.from_dict(record["request"])),
                   artifacts=record["artifacts"],
                   summary=record["summary"],
                   elapsed_s=record.get("elapsed_s", 0.0),
                   phases=record.get("phases", {}),
                   from_cache=True,
                   error=record.get("error"),
                   traceback=record.get("traceback"),
                   cache=cache)


def _build_scheduled_design(request: DesignRequest, cache,
                            phases: dict[str, float], load: bool = True):
    """Phases 1+2 of the staged cold path: ``(design, design_dict,
    summary)`` for *request*, reusing the intermediate cache — the live
    tier, then the phase record, then the cold build: front-end ADG
    (itself live-cached, so requests differing only in backend-pass
    options share it) followed by the §V pass pipeline.  Cold results
    are stored back in both tiers; *load* False returns a phase record
    as stored, its ``design`` None (the caller wants the tree).
    """
    from ..backend import generate, run_backend
    from ..core.frontend import build_adg
    from ..report import design_summary
    from ..serialize import design_from_dict, design_to_dict

    design_key = request.design_key()
    if cache is not None:
        live = cache.get_live(PHASE_DESIGN, design_key)
        if live is not None:
            return live
        record = cache.get_phase(PHASE_DESIGN, design_key)
        if (isinstance(record, dict)
                and record.get("kind") == "phase-design-v1"):
            if not load:
                return None, record["design"], record["summary"]
            with timed_phase(PHASE_DESIGN_LOAD, phases,
                             design_key=design_key[:12]):
                design = design_from_dict(record["design"])
            loaded = (design, record["design"], record["summary"])
            cache.put_live(PHASE_DESIGN, design_key, loaded)
            return loaded

    adg_key = request.adg_key()
    adg = cache.get_live(PHASE_ADG, adg_key) if cache is not None else None
    if adg is None:
        with timed_phase(PHASE_ADG, phases, kernel=request.kernel):
            adg = build_adg(request.build_dataflows(), request.frontend)
        if cache is not None:
            cache.put_live(PHASE_ADG, adg_key, adg)
    with timed_phase(PHASE_SCHEDULE, phases, kernel=request.kernel):
        design = run_backend(generate(adg), request.options)
    design_dict = design_to_dict(design)
    summary = design_summary(design)
    built = (design, design_dict, summary)
    if cache is not None:
        cache.put_phase(PHASE_DESIGN, design_key,
                        {"kind": "phase-design-v1",
                         "design": design_dict, "summary": summary})
        cache.put_live(PHASE_DESIGN, design_key, built)
    return built


def execute_request(request: DesignRequest,
                    cache=None) -> DesignResult:
    """Run the staged frontend→backend flow for one request, emitting
    through the backend family the request names.

    With a :class:`~repro.service.cache.DesignCache`, the hashed phases
    (dataflows→ADG, ADG→scheduled design, design→golden vectors,
    design→artifacts) are reused from the intermediate tier, so a
    request that differs from a previous one only in ``backend`` or
    ``module`` pays for emission alone.

    Failures are captured, not raised: a batch must survive one bad
    request, and the caller decides what to do with the error string.
    """
    from ..backends import EmitContext, emit_artifacts

    start = time.perf_counter()
    spec_hash = request.spec_hash()
    phases: dict[str, float] = {}
    try:
        with trace_span("request", kernel=request.kernel,
                        backend=request.backend,
                        spec_hash=spec_hash[:12]):
            family = get_backend(request.backend)
            design, design_dict, summary = _build_scheduled_design(
                request, cache, phases)
            with timed_phase(PHASE_EMIT, phases, family=family.name):
                context = EmitContext(cache=cache, request=request,
                                      design_key=request.design_key())
                artifacts = emit_artifacts(family, design,
                                           module_name=request.module,
                                           context=context)
        return DesignResult(
            spec_hash=spec_hash,
            request=request,
            design=design_dict,
            artifacts=artifacts,
            summary=summary,
            elapsed_s=time.perf_counter() - start,
            phases=phases,
            cache=cache,
        )
    except Exception as exc:  # noqa: BLE001 — per-request capture is the point
        return DesignResult(
            spec_hash=spec_hash,
            request=request,
            elapsed_s=time.perf_counter() - start,
            phases=phases,
            error="".join(traceback.format_exception_only(type(exc),
                                                          exc)).strip(),
            traceback="".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
        )
