"""Batch-generation engine: cache-first, phase-aware, parallel.

``generate_many`` takes a list of :class:`DesignRequest` (or a whole
:class:`~repro.dse.explorer.DesignSpace`), answers what it can from the
cache, deduplicates identical requests within the batch, and **plans**
the remaining cold work as a DAG over the staged pipeline's phase keys:
cold specs are grouped by ``design_key`` (the identity of the scheduled
design), only one *leader* per distinct design fans out to the worker
pool, and every other member of the group — a backend/module *variant*
of the same scheduled design — is emitted in-process afterwards from
the phase records the leader left in the shared cache.  A sweep of
1000 requests over 60 distinct designs × several backends therefore
pays ~60 schedule phases, not 1000.  :meth:`BatchEngine.plan` exposes
the same grouping as a dry-run :class:`BatchPlan` (the ``repro batch
--plan-summary`` surface and the serving job table's ``plan`` field).

Per-request failures are captured in the result, never raised — a
thousand-design sweep must not die on design #713.  A leader that
fails *before* its design phase completes poisons exactly its own
group (each member carries the failure traceback); sibling groups are
unaffected, and nothing broken is cached, so a retry recomputes.

The same engine also memoizes DSE point evaluations
(:func:`evaluate_archs`), which is how ``dse.explorer.explore`` gets its
``workers=``/``cache=`` parameters without knowing about this module's
internals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
from collections import Counter
from typing import Callable, Iterable, Sequence

from ..obs import (PHASE_DESIGN, current_span_id, current_trace_id,
                   get_registry, merge_telemetry, reset_registry,
                   telemetry_snapshot, trace_context, trace_span)
from ..obs.tracing import get_tracer
from ..serialize import canonical_dumps
from .cache import DesignCache
from .spec import DesignRequest, DesignResult, execute_request

__all__ = ["BatchEngine", "BatchPlan", "PlanGroup",
           "requests_from_space", "evaluate_archs", "model_fingerprint"]

#: DSE dataflow names → (kernel, generator dataflow names).
_DSE_DATAFLOW_MAP = {
    "MN": ("gemm", "IJ"),
    "ICOC": ("conv2d", "ICOC"),
    "OHOW": ("conv2d", "OHOW"),
    "OCOH": ("conv2d", "OCOH"),
    "KHOH": ("conv2d", "KHOH"),
}


def _pool_context():
    # fork is cheap and hands the workers every module the parent has
    # loaded; the solver is not among them unless the parent has solved
    # (repro.solvers loads at the first solve), so _execute imports it
    # before it forks.  spawn is the fallback.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — platforms without fork
        return multiprocessing.get_context("spawn")


# The staged pipeline's intermediate cache, rebuilt once per worker
# process from a picklable spec (a live DesignCache holds locks and
# cannot cross a spawn boundary).  The on-disk tier is multi-process
# safe, so every worker shares the same phase records.
_WORKER_CACHE: DesignCache | None = None


def _init_request_worker(cache_spec: dict | None) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = (DesignCache(**cache_spec)
                     if cache_spec is not None else None)


def _cache_spec(cache: DesignCache | None) -> dict | None:
    """Picklable recipe for rebuilding an equivalent cache in a worker."""
    if cache is None:
        return None
    return {"root": str(cache.root),
            "memory_entries": cache.memory_entries,
            "disk_entries": cache.disk_entries}


def _run_request_payload(payload: dict) -> tuple[str, dict, dict]:
    """Worker entry point: rebuild the request, run it through the
    staged pipeline, return the cache record plus this task's telemetry
    delta (metrics snapshot + spans, tagged with the trace id the
    payload carried).  Top-level so it pickles under both fork and
    spawn.

    Pool workers process tasks serially, so resetting the worker's
    process-global registry/tracer at task start makes the snapshot at
    task end exactly this task's delta — fork-inherited parent counts
    included in neither.
    """
    reset_registry()
    get_tracer().clear()
    request = DesignRequest.from_dict(payload["request"])
    # parent_id is the engine-side span that fanned this task out (the
    # "batch" span): binding it makes the worker's spans children in
    # the merged trace tree, not disconnected roots.
    with trace_context(payload.get("trace_id"), payload.get("parent_id")):
        result = execute_request(request, cache=_WORKER_CACHE)
    return result.spec_hash, result.to_record(), telemetry_snapshot()


def requests_from_space(space, options=None,
                        backend: str = "verilog") -> list[DesignRequest]:
    """Translate every architecture point of a DSE ``DesignSpace`` into
    generator requests (one per kernel family present in its dataflow
    set), deduplicated — buffer/bandwidth axes do not change the RTL.
    *backend* names the emitter family every request targets, so a
    sweep can be retargeted (e.g. ``backend="hls_c"``) without touching
    the space."""
    seen: dict[str, DesignRequest] = {}
    for arch in space.points():
        per_kernel: dict[str, list[str]] = {}
        for name in arch.dataflows:
            kernel, df = _DSE_DATAFLOW_MAP.get(name, (None, None))
            if kernel is not None and df not in per_kernel.setdefault(
                    kernel, []):
                per_kernel[kernel].append(df)
        for kernel, dfs in sorted(per_kernel.items()):
            req = DesignRequest(kernel=kernel, dataflows=tuple(dfs),
                                array=arch.array, backend=backend)
            seen.setdefault(req.spec_hash(), req)
    return list(seen.values())


_DESIGNS = get_registry().counter(
    "repro_designs_total",
    "design requests resolved by the batch engine",
    ("source", "outcome"))

_PLAN_GROUPS = get_registry().counter(
    "repro_planner_groups_total",
    "distinct scheduled-design groups the batch planner fanned out "
    "(one schedule phase each)")

_PLAN_REQUESTS = get_registry().counter(
    "repro_planner_requests_total",
    "cold unique specs routed by the batch planner: leader = carries "
    "its group's schedule phase to the pool, variant = emitted "
    "in-process from the leader's shared phase records",
    ("role",))


@dataclasses.dataclass
class PlanGroup:
    """One distinct scheduled design in a :class:`BatchPlan`: the
    *leader* pays the ``schedule`` phase (and goes to the worker pool);
    the *variants* are backend/module re-emissions of the same
    scheduled design, run in-process from the leader's phase records."""

    design_key: str
    leader: DesignRequest
    variants: list[DesignRequest] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return {"design_key": self.design_key,
                "leader": self.leader.spec_hash(),
                "variants": [v.spec_hash() for v in self.variants]}


@dataclasses.dataclass
class BatchPlan:
    """The planner's view of one batch before any execution: how many
    requests collapse to unique specs, how many of those the cache
    already answers, and how the cold remainder groups by
    ``design_key`` — i.e. how many schedule phases the batch will
    actually pay."""

    n_requests: int          # as submitted, duplicates included
    n_unique: int            # distinct spec hashes
    n_cached: int            # unique specs the cache already answers
    groups: list[PlanGroup]  # cold work, one group per design_key

    @property
    def n_duplicates(self) -> int:
        return self.n_requests - self.n_unique

    @property
    def n_cold(self) -> int:
        return sum(1 + len(g.variants) for g in self.groups)

    @property
    def n_schedules(self) -> int:
        return len(self.groups)

    @property
    def n_variants(self) -> int:
        return self.n_cold - len(self.groups)

    def to_dict(self) -> dict:
        return {"n_requests": self.n_requests, "n_unique": self.n_unique,
                "n_duplicates": self.n_duplicates,
                "n_cached": self.n_cached, "n_cold": self.n_cold,
                "n_schedules": self.n_schedules,
                "n_variants": self.n_variants}

    def summary(self) -> str:
        return (f"{self.n_requests} requests -> {self.n_unique} unique "
                f"specs ({self.n_duplicates} in-batch duplicates), "
                f"{self.n_cached} cached; {self.n_cold} cold in "
                f"{self.n_schedules} design groups: "
                f"{self.n_schedules} schedules + "
                f"{self.n_variants} shared-design emits")


class BatchEngine:
    """Cache-consulting, phase-aware, parallel executor for design
    requests."""

    def __init__(self, cache: DesignCache | None = None,
                 workers: int | None = None):
        self.cache = cache
        self.workers = workers or 1

    # -- single request ----------------------------------------------------

    def submit(self, request: DesignRequest) -> DesignResult:
        return self.generate_many([request])[0]

    # -- planning ----------------------------------------------------------

    def plan(self, requests) -> BatchPlan:
        """Dry-run the planner: dedup by spec hash, test cache
        membership (without touching hit/miss stats or LRU order), and
        group the cold remainder by ``design_key``.  This is exactly
        the grouping :meth:`generate_many` executes."""
        requests = self._as_requests(requests)
        unique: dict[str, DesignRequest] = {}
        for request in requests:
            unique.setdefault(request.spec_hash(), request)
        cold = [r for key, r in unique.items()
                if self.cache is None or key not in self.cache]
        return BatchPlan(
            n_requests=len(requests), n_unique=len(unique),
            n_cached=len(unique) - len(cold),
            groups=self._group_by_design(cold))

    def _group_by_design(self, cold: Sequence[DesignRequest]
                         ) -> list[PlanGroup]:
        """Cold specs grouped by scheduled-design identity; the first
        request seen for each ``design_key`` leads its group.  Without
        a cache there is nowhere to share phase records through, so
        every request leads a group of one."""
        if self.cache is None:
            return [PlanGroup(r.design_key(), r) for r in cold]
        groups: dict[str, PlanGroup] = {}
        for request in cold:
            key = request.design_key()
            group = groups.get(key)
            if group is None:
                groups[key] = PlanGroup(key, request)
            else:
                group.variants.append(request)
        return list(groups.values())

    # -- batch -------------------------------------------------------------

    def generate_many(self, requests,
                      workers: int | None = None,
                      progress: Callable[[int, int, DesignResult], None]
                      | None = None,
                      plan: bool = True) -> list[DesignResult]:
        """Generate every request, cache-first; results in input order.

        *requests* may be an iterable of :class:`DesignRequest` or a
        ``DesignSpace`` (translated via :func:`requests_from_space`).

        With *plan* (the default), cold specs are grouped by
        ``design_key``: one leader per distinct scheduled design fans
        out (to the pool when ``workers > 1``), then its group's
        backend/module variants are emitted in-process from the phase
        records the leader left in the shared cache.  ``plan=False``
        executes every cold spec independently — the baseline the
        planner tests compare against byte-for-byte.
        """
        requests = self._as_requests(requests)
        workers = workers if workers is not None else self.workers
        hashes = [r.spec_hash() for r in requests]
        occurrences = Counter(hashes)
        total = len(requests)
        done = 0
        resolved: dict[str, DesignResult] = {}

        def report(result: DesignResult) -> None:
            # One progress tick per *request*, so `done` reaches `total`
            # even when requests are cache hits or in-batch duplicates.
            nonlocal done
            _DESIGNS.labels(
                source="cache" if result.from_cache else "cold",
                outcome="ok" if result.ok else "error",
            ).inc(occurrences[result.spec_hash])
            for _ in range(occurrences[result.spec_hash]):
                done += 1
                if progress is not None:
                    progress(done, total, result)

        def resolve(result: DesignResult) -> None:
            resolved[result.spec_hash] = result
            if (self.cache is not None and result.ok
                    and not result.from_cache):
                self.cache.put(result.spec_hash, result.to_record())
            report(result)

        with trace_span("batch", n_requests=total, workers=workers):
            # 1. cache pass + in-batch dedup
            cold: list[DesignRequest] = []
            cold_keys: set[str] = set()
            for req, key in zip(requests, hashes):
                if key in resolved or key in cold_keys:
                    continue
                record = (self.cache.get(key)
                          if self.cache is not None else None)
                if record is not None:
                    resolved[key] = DesignResult.from_record(key, record)
                    report(resolved[key])
                else:
                    cold.append(req)
                    cold_keys.add(key)

            # 2. plan: group cold specs by scheduled-design identity
            if plan:
                groups = self._group_by_design(cold)
            else:
                groups = [PlanGroup(r.design_key(), r) for r in cold]
            variants_of = {g.leader.spec_hash(): g.variants
                           for g in groups}
            n_variants = sum(len(g.variants) for g in groups)
            if plan and cold:
                _PLAN_GROUPS.inc(len(groups))
                _PLAN_REQUESTS.labels(role="leader").inc(len(groups))
                if n_variants:
                    _PLAN_REQUESTS.labels(role="variant").inc(n_variants)
                with trace_span("plan", n_cold=len(cold),
                                n_groups=len(groups),
                                n_variants=n_variants):
                    pass  # instant span: records the plan in the trace

            # 3. fan only the group leaders out; as each leader lands,
            # emit its variants in-process from the shared phase records
            for key, record in self._execute(
                    [g.leader for g in groups], workers):
                result = DesignResult.from_record(key, record,
                                                  from_cache=False)
                resolve(result)
                for variant in variants_of.get(key, ()):
                    resolve(self._run_variant(variant, result))

        return [resolved[key] for key in hashes]

    def _run_variant(self, variant: DesignRequest,
                     leader: DesignResult) -> DesignResult:
        """One non-leader member of a design group.  By the time this
        runs the leader has (on success) left the group's scheduled
        design in the cache's phase/live tiers, so ``execute_request``
        here pays for emission alone.  If the leader failed *before*
        its design phase completed, the shared schedule itself is
        broken: propagate the leader's failure to the variant instead
        of re-scheduling a known-bad design once per backend."""
        if not leader.ok and not self._design_available(variant):
            return DesignResult(spec_hash=variant.spec_hash(),
                                request=variant, error=leader.error,
                                traceback=leader.traceback)
        return execute_request(variant, cache=self.cache)

    def _design_available(self, request: DesignRequest) -> bool:
        key = request.design_key()
        return (self.cache is not None
                and (self.cache.get_live(PHASE_DESIGN, key) is not None
                     or self.cache.get_phase(PHASE_DESIGN, key)
                     is not None))

    def _execute(self, cold: Sequence[DesignRequest],
                 workers: int) -> Iterable[tuple[str, dict]]:
        if workers <= 1 or len(cold) <= 1:
            # In-process: the staged pipeline shares this engine's cache
            # directly (live tier included), and its telemetry lands in
            # this process's registry/tracer as it happens.
            for request in cold:
                result = execute_request(request, cache=self.cache)
                yield result.spec_hash, result.to_record()
            return
        # Pooled: ship the current trace id (and the enclosing span's id
        # — the pool tasks' parent in the trace tree) inside each
        # pickled payload and merge every worker's telemetry delta back,
        # so the parent's /metrics and exported trace cover the whole
        # fan-out.
        trace_id = current_trace_id()
        parent_id = current_span_id()
        payloads = [{"request": r.to_dict(), "trace_id": trace_id,
                     "parent_id": parent_id}
                    for r in cold]
        ctx = _pool_context()
        # Cold work solves.  Load the solver here, once, so that every
        # forked worker inherits it instead of importing it for itself.
        try:
            from .. import solvers  # noqa: F401
        except ImportError:
            pass  # every request reports it (see repro.solvers)
        with ctx.Pool(processes=min(workers, len(cold)),
                      initializer=_init_request_worker,
                      initargs=(_cache_spec(self.cache),)) as pool:
            for key, record, telemetry in pool.imap(
                    _run_request_payload, payloads, chunksize=1):
                merge_telemetry(telemetry)
                yield key, record

    @staticmethod
    def _as_requests(requests) -> list[DesignRequest]:
        if hasattr(requests, "points") and hasattr(requests, "size"):
            return requests_from_space(requests)
        return list(requests)


# ---------------------------------------------------------------------------
# DSE point evaluation (the explorer's hot loop) through the same cache.
# ---------------------------------------------------------------------------

def model_fingerprint(model) -> str:
    """Deterministic identity of a workload model (dataclass repr of
    names/ints/floats, stable across processes).  Part of the eval-row
    address, and the thing a DSE checkpoint pins its models to."""
    return hashlib.sha256(repr(model).encode()).hexdigest()


def _eval_key(model_fingerprints: list[str], arch, tech) -> str:
    payload = {
        "kind": "eval-v1",
        "models": model_fingerprints,
        "arch": dataclasses.asdict(arch),
        "tech": repr(tech),
    }
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()


def _eval_arch(models, arch, tech) -> dict:
    """Aggregate cycles/energy/ops of *models* on one arch."""
    from ..sim.perf_model import evaluate_model

    cycles = energy = ops = 0.0
    for model in models:
        perf = evaluate_model(model, arch, tech)
        cycles += perf.total_cycles
        energy += perf.total_energy_pj
        ops += perf.total_ops
    return {"kind": "eval-v1", "cycles": cycles, "energy_pj": energy,
            "ops": ops}


# Models are invariant across a sweep; ship them to each worker once via
# the pool initializer instead of re-pickling them into every job.
_WORKER_MODELS: list | None = None


def _init_eval_worker(models) -> None:
    global _WORKER_MODELS
    _WORKER_MODELS = models


def _eval_arch_pooled(args) -> dict:
    arch, tech = args
    return _eval_arch(_WORKER_MODELS, arch, tech)


def evaluate_archs(models, archs, tech,
                   workers: int = 1,
                   cache: DesignCache | None = None,
                   overlay: dict | None = None) -> list[dict]:
    """Evaluate *models* on every architecture in *archs*; returns one
    ``{"cycles", "energy_pj", "ops"}`` row per arch, in order.  Rows are
    served from *cache* when possible and computed in parallel when
    ``workers > 1``.

    *overlay* is a plain ``{eval_key: row}`` dict consulted before the
    cache and updated with every row this call resolves (including
    cache hits), so a caller can carry a self-contained copy of the
    rows — the DSE checkpoint mechanism."""
    models = list(models)
    archs = list(archs)
    fingerprints = [model_fingerprint(m) for m in models]
    keys = [_eval_key(fingerprints, arch, tech) for arch in archs]
    rows: dict[int, dict] = {}
    cold: list[int] = []
    for i, key in enumerate(keys):
        record = overlay.get(key) if overlay is not None else None
        if record is None:
            record = cache.get(key) if cache is not None else None
        if record is not None and record.get("kind") == "eval-v1":
            rows[i] = record
            if overlay is not None:
                overlay[key] = record
        else:
            cold.append(i)

    if workers <= 1 or len(cold) <= 1:
        computed = [_eval_arch(models, archs[i], tech) for i in cold]
    else:
        ctx = _pool_context()
        with ctx.Pool(processes=min(workers, len(cold)),
                      initializer=_init_eval_worker,
                      initargs=(models,)) as pool:
            computed = pool.map(_eval_arch_pooled,
                                [(archs[i], tech) for i in cold])
    for i, record in zip(cold, computed):
        rows[i] = record
        if overlay is not None:
            overlay[keys[i]] = record
        if cache is not None:
            cache.put(keys[i], record)
    return [rows[i] for i in range(len(archs))]
