"""Batch-generation engine: cache-first, phase-aware, parallel.

``generate_many`` takes a list of :class:`DesignRequest` (or a whole
:class:`~repro.dse.explorer.DesignSpace`), answers what it can from the
cache, deduplicates identical requests within the batch, and **plans**
the remaining cold work as a DAG over the staged pipeline's phase keys:
cold specs are grouped by ``design_key`` (the identity of the scheduled
design), and each *group* is one unit of work — in a pool worker when
``workers > 1``.  Its *leader* schedules the design (or loads it once
from the phase tier), and every other member — a backend/module
*variant* of the same scheduled design — is emitted in the same process
from that live design.  Each record is written to the cache where it
was built; the parent only hashes, runs the cache pass, groups and
collects.  A sweep of 1000 requests over 60 distinct designs × several
backends therefore pays ~60 schedule phases, not 1000.
:meth:`BatchEngine.plan` exposes the same grouping as a dry-run
:class:`BatchPlan` (the ``repro batch --plan-summary`` surface and the
serving job table's ``plan`` field).

Per-request failures are captured in the result, never raised — a
thousand-design sweep must not die on design #713.  A leader that
fails *before* its design phase completes poisons exactly its own
group (each member carries the failure traceback); sibling groups are
unaffected, and nothing broken is cached, so a retry recomputes.

The same engine also memoizes DSE point evaluations
(:func:`evaluate_archs`), which is how ``dse.run_search`` gets its
``workers=``/``cache=`` parameters without knowing about this module's
internals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import signal
import stat
from collections import Counter
from typing import Callable, Iterable, Sequence

from ..obs import (PHASE_DESIGN, current_span_id, current_trace_id,
                   get_registry, merge_telemetry, reset_registry,
                   telemetry_snapshot, trace_context, trace_span)
from ..obs.tracing import get_tracer
from ..serialize import canonical_dumps
from .cache import CacheStats, DesignCache
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
    # loaded; the generator is not among them in a serving process, nor
    # the solver unless the parent has solved (repro.solvers loads at
    # the first solve), so _run_pooled loads both before it forks
    # workers that will use them.  spawn is the fallback.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — platforms without fork
        return multiprocessing.get_context("spawn")


# The staged pipeline's intermediate cache, rebuilt once per worker
# process from a picklable spec (a live DesignCache holds locks and
# cannot cross a spawn boundary).  The on-disk tier is multi-process
# safe, so every worker shares the same phase records.
_WORKER_CACHE: DesignCache | None = None


def _load_generator() -> None:
    """Import what a request compiles with (:func:`execute_request`
    imports it inside its body, so importing this module does not): in
    a pool's parent before it forks, or in a worker forked from a
    serving process, so no task's spans pay for it."""
    from .. import backends, report  # noqa: F401
    from ..core import frontend  # noqa: F401


def _init_request_worker(cache_spec: dict | None) -> None:
    global _WORKER_CACHE
    _detach_from_parent()
    _load_generator()
    _WORKER_CACHE = (DesignCache(**cache_spec)
                     if cache_spec is not None else None)


def _detach_from_parent() -> None:
    """Cut a forked worker's ties to its parent.  A server forks while
    it serves: a copy of a client socket kept here would hold open a
    connection the server closed, so every inherited socket is pointed
    at ``/dev/null`` (the pool's pipes are not sockets).  The parent's
    signal handlers belong to its event loop, so a worker takes
    SIGTERM's default and leaves ctrl-C to the parent.  And a worker
    must not outlive a SIGKILLed parent, still writing to its cache: on
    Linux it asks for SIGKILL when the thread that forked it dies."""
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover — no procfs
        fds = []
    null = os.open(os.devnull, os.O_RDWR)
    for fd in fds:
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(null, fd)
        except OSError:
            pass  # the listing's own descriptor, already closed
    os.close(null)
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        import ctypes

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):  # pragma: no cover — not Linux
        pass


def _cache_spec(cache: DesignCache | None) -> dict | None:
    """Picklable recipe for rebuilding an equivalent cache in a worker."""
    if cache is None:
        return None
    return {"root": str(cache.root),
            "memory_entries": cache.memory_entries,
            "disk_entries": cache.disk_entries}


def _run_group(cache: DesignCache | None, group: PlanGroup,
               lookup: bool = False) -> list[DesignResult]:
    """One design group, in-process or in a pool worker: the leader
    schedules (or loads) the design, then every variant emits from the
    live design it left in *cache*.  Each ok record is cached here,
    where it was built.  With *lookup*, a member whose full record is
    already cached is answered from it instead (the server's loop reads
    only the memory tier, so the disk tier is read here)."""
    def build(request: DesignRequest) -> DesignResult:
        if lookup and cache is not None:
            record = cache.get(request.spec_hash())
            if record is not None:
                return DesignResult.from_record(request.spec_hash(), record,
                                                cache, request)
        result = execute_request(request, cache=cache)
        if cache is not None and result.ok:
            cache.put(result.spec_hash, result.to_record())
        return result

    leader = build(group.leader)
    # A leader that failed before its design phase left no live design:
    # its failure is every member's.  (Only a cached group has variants.)
    poisoned = (not leader.ok and bool(group.variants)
                and cache.get_live(PHASE_DESIGN, group.design_key) is None)
    return [leader] + [
        DesignResult(spec_hash=v.spec_hash(), request=v,
                     error=leader.error, traceback=leader.traceback)
        if poisoned else build(v) for v in group.variants]


def _pool_task(task: tuple) -> tuple[object, dict, CacheStats | None]:
    """The one pool entry point: ``(fn, args, trace_id, parent_id)`` →
    ``fn(worker cache, *args)`` plus this task's telemetry delta
    (metrics snapshot + spans, tagged with the trace id the task
    carried) and its cache-stats delta.  *fn* is a top-level function
    (:func:`_run_group`, or :func:`_evaluate_rows`), so the task
    pickles under both fork and spawn.

    Pool workers process tasks serially, so resetting the worker's
    process-global registry/tracer/stats at task start makes the
    snapshot at task end exactly this task's delta — fork-inherited
    parent counts included in neither.
    """
    fn, args, trace_id, parent_id = task
    reset_registry()
    get_tracer().clear()
    cache = _WORKER_CACHE
    if cache is not None:
        cache.stats = CacheStats()
    # parent_id is the span that sent this task out (a "batch" span, or
    # the server's request or job span): binding it makes the worker's
    # spans children in the merged trace tree, not disconnected roots.
    with trace_context(trace_id, parent_id):
        value = fn(cache, *args)
    return (value, telemetry_snapshot(),
            cache.stats if cache is not None else None)


def remember_built(cache: DesignCache | None,
                   results: Iterable[DesignResult]) -> None:
    """Keep this process's memory tier as warm as an in-process run:
    a pool worker wrote these records to disk, and the next lookup
    here should not have to read them back.  Each result's design
    resolves through *cache*: a worker with a cache sent it without
    the tree, which that worker wrote to the phase tier."""
    if cache is not None:
        for result in results:
            result.cache = cache
            if result.ok:
                cache.remember(result.spec_hash, result.to_record())


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
    "cold unique specs routed by the batch planner: leader = pays its "
    "group's schedule phase, variant = emitted after it in the same "
    "process from the live scheduled design",
    ("role",))


@dataclasses.dataclass
class PlanGroup:
    """One distinct scheduled design in a :class:`BatchPlan`, run as
    one unit of work: the *leader* pays the ``schedule`` phase; the
    *variants* are backend/module re-emissions of the same scheduled
    design, emitted after it in the same process from the live
    design."""

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


def summarize_plan(plan: dict) -> str:
    """One line of a :meth:`BatchPlan.to_dict` — in-process, or the
    ``plan`` a ``/batch`` job reports (``repro batch --plan-summary``)."""
    return ("{n_requests} requests -> {n_unique} unique specs "
            "({n_duplicates} in-batch duplicates), {n_cached} cached; "
            "{n_cold} cold in {n_schedules} design groups: "
            "{n_schedules} schedules + {n_variants} shared-design emits"
            .format(**plan))


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

    def _group_by_design(self, cold: Iterable[DesignRequest]
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

    def begin(self, requests: Sequence[DesignRequest],
              progress: Callable[[int, int, DesignResult], None]
              | None = None, plan: bool = True,
              memory_only: bool = False) -> "_Batch":
        """The first half of a batch, shared by :meth:`generate_many`
        and the server's event loop: the cache pass with in-batch dedup
        (every hit reported at once), then the cold remainder grouped
        by ``design_key`` into :attr:`_Batch.groups`, summed up in
        :attr:`_Batch.plan`.  *memory_only* keeps the pass off the disk
        (the server's loop); its groups then hold disk-cached specs
        too, for ``_run_group(..., lookup=True)`` to answer, and its
        plan counts only memory-tier hits as cached.  Call inside a
        ``batch`` span."""
        batch = _Batch(requests, progress)
        cold: dict[str, DesignRequest] = {}
        cache = self.cache
        lookup = (None if cache is None
                  else cache.get_memory if memory_only else cache.get)
        for req, key in zip(requests, batch.hashes):
            if key in batch.resolved or key in cold:
                continue
            record = lookup(key) if lookup is not None else None
            if record is not None:
                batch.collect([DesignResult.from_record(key, record,
                                                        cache, req)])
            else:
                cold[key] = req
        groups = (self._group_by_design(cold.values()) if plan else
                  [PlanGroup(r.design_key(), r) for r in cold.values()])
        n_variants = len(cold) - len(groups)
        if plan and cold:
            _PLAN_GROUPS.inc(len(groups))
            _PLAN_REQUESTS.labels(role="leader").inc(len(groups))
            if n_variants:
                _PLAN_REQUESTS.labels(role="variant").inc(n_variants)
            with trace_span("plan", n_cold=len(cold),
                            n_groups=len(groups), n_variants=n_variants):
                pass  # instant span: records the plan in the trace
        batch.groups = groups
        batch.plan = BatchPlan(n_requests=len(requests),
                               n_unique=len(batch.resolved) + len(cold),
                               n_cached=len(batch.resolved), groups=groups)
        return batch

    def generate_many(self, requests,
                      workers: int | None = None,
                      progress: Callable[[int, int, DesignResult], None]
                      | None = None,
                      plan: bool = True) -> list[DesignResult]:
        """Generate every request, cache-first; results in input order.

        *requests* may be an iterable of :class:`DesignRequest` or a
        ``DesignSpace`` (translated via :func:`requests_from_space`).

        With *plan* (the default), cold specs are grouped by
        ``design_key`` and each group runs as one unit (in a pool worker
        when ``workers > 1`` and there is more than one group): its
        leader schedules the design, its backend/module variants emit
        from the live design, and each record is cached where it was
        built.  ``plan=False`` executes every cold spec independently —
        the baseline the planner tests compare against byte-for-byte.
        """
        requests = self._as_requests(requests)
        workers = workers if workers is not None else self.workers
        with trace_span("batch", n_requests=len(requests), workers=workers):
            batch = self.begin(requests, progress, plan)
            if workers <= 1 or len(batch.groups) <= 1:
                # the runner shares this engine's cache directly (live
                # tier included), and its telemetry lands in this
                # process's registry/tracer as it happens
                for group in batch.groups:
                    batch.collect(_run_group(self.cache, group))
            else:
                self._run_pooled(batch, workers)
        return batch.results()

    def _run_pooled(self, batch: "_Batch", workers: int) -> None:
        # Each task carries the trace id and the enclosing span's id (its
        # parent in the trace tree); every worker's telemetry delta is
        # merged back, so /metrics and the trace cover the fan-out.  The
        # workers' cache stats are not: this engine's stats count its
        # own lookups and writes, and it wrote no record.
        groups = batch.groups
        tasks = [(_run_group, (group,), current_trace_id(),
                  current_span_id()) for group in groups]
        cache = self.cache
        _load_generator()
        if cache is None or any(
                cache.phase_address(PHASE_DESIGN, g.design_key)
                not in cache for g in groups):
            # Some group will schedule: load the solver once, here, so
            # every forked worker inherits it.  A batch whose designs are
            # all in the phase tier only emits and never needs it.
            try:
                from .. import solvers  # noqa: F401
            except ImportError:
                pass  # every request reports it (see repro.solvers)
        with _pool_context().Pool(
                processes=min(workers, len(groups)),
                initializer=_init_request_worker,
                initargs=(_cache_spec(cache),)) as pool:
            for results, telemetry, _stats in pool.imap(
                    _pool_task, tasks, chunksize=1):
                merge_telemetry(telemetry)
                remember_built(cache, results)
                batch.collect(results)

    @staticmethod
    def _as_requests(requests) -> list[DesignRequest]:
        if hasattr(requests, "points") and hasattr(requests, "size"):
            return requests_from_space(requests)
        return list(requests)


class _Batch:
    """One batch's bookkeeping from its cache pass to its results (see
    :meth:`BatchEngine.begin`): one progress tick per *request* as
    results land, so ``done`` reaches ``total`` even when requests are
    cache hits or in-batch duplicates."""

    def __init__(self, requests: Sequence[DesignRequest], progress):
        self.hashes = [r.spec_hash() for r in requests]
        self.groups: list[PlanGroup] = []
        self.plan: BatchPlan | None = None
        self.resolved: dict[str, DesignResult] = {}
        self._occurrences = Counter(self.hashes)
        self._progress = progress
        self._done = 0

    def collect(self, results: Iterable[DesignResult]) -> None:
        for result in results:
            self.resolved[result.spec_hash] = result
            n = self._occurrences[result.spec_hash]
            _DESIGNS.labels(
                source="cache" if result.from_cache else "cold",
                outcome="ok" if result.ok else "error").inc(n)
            for _ in range(n):
                self._done += 1
                if self._progress is not None:
                    self._progress(self._done, len(self.hashes), result)

    def results(self) -> list[DesignResult]:
        """Every request's result, in input order."""
        return [self.resolved[key] for key in self.hashes]


# ---------------------------------------------------------------------------
# DSE point evaluation (the explorer's hot loop) through the same cache.
# ---------------------------------------------------------------------------

def model_fingerprint(model) -> str:
    """Deterministic identity of a workload model (dataclass repr of
    names/ints/floats, stable across processes): part of the eval-row
    address."""
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


def _evaluate_rows(cache: DesignCache | None, models, archs, tech
                   ) -> list[dict]:
    """:func:`evaluate_archs` as a pool task (the server's unit of
    ``/explore`` work): serial, through the worker's cache."""
    return evaluate_archs(models, archs, tech, cache=cache)


def evaluate_archs(models, archs, tech,
                   workers: int = 1,
                   cache: DesignCache | None = None) -> list[dict]:
    """Evaluate *models* on every architecture in *archs*; returns one
    ``{"cycles", "energy_pj", "ops"}`` row per arch, in order.  Rows are
    served from *cache* when possible and computed in parallel when
    ``workers > 1``.  Each computed row is put in the cache as soon as
    it exists, so a process killed mid-call keeps every row it
    finished — the rows a rerun of the same search reads back."""
    models = list(models)
    archs = list(archs)
    fingerprints = [model_fingerprint(m) for m in models]
    keys = [_eval_key(fingerprints, arch, tech) for arch in archs]
    rows: dict[int, dict] = {}
    cold: list[int] = []
    for i, key in enumerate(keys):
        record = cache.get(key) if cache is not None else None
        if record is not None and record.get("kind") == "eval-v1":
            rows[i] = record
        else:
            cold.append(i)

    def store(computed) -> None:
        for i, record in zip(cold, computed):
            rows[i] = record
            if cache is not None:
                cache.put(keys[i], record)

    if workers <= 1 or len(cold) <= 1:
        store(_eval_arch(models, archs[i], tech) for i in cold)
    else:
        ctx = _pool_context()
        with ctx.Pool(processes=min(workers, len(cold)),
                      initializer=_init_eval_worker,
                      initargs=(models,)) as pool:
            store(pool.imap(_eval_arch_pooled,
                            [(archs[i], tech) for i in cold]))
    return [rows[i] for i in range(len(archs))]
