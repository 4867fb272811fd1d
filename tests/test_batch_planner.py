"""The phase-aware batch planner.

``BatchEngine.generate_many`` plans each batch as a DAG over phase
keys: requests group by ``design_key``, each group is one unit of work
(a pool task when ``workers > 1``), its leader schedules the design and
its backend/module variants are emitted from that live design.  These
tests pin down the planner's core contract with randomized batches:

* exactly **one schedule phase per distinct design_key** — counted
  through the process-global metrics registry, not inferred from
  timings;
* planned results are **byte-identical** to the unplanned baseline
  (``plan=False``), timing fields aside;
* :meth:`BatchEngine.plan` is a faithful dry run of what
  ``generate_many`` then executes, and never perturbs cache stats;
* a pooled variant never reloads its design: the leader's worker emits
  it from the live design and writes its record.
"""

import random

from repro.obs import get_registry
from repro.serialize import canonical_dumps
from repro.service import (BatchEngine, BatchPlan, DesignCache,
                           ServerThread, ServiceClient)
from repro.service.engine import summarize_plan
from repro.service.spec import DesignRequest

# Small scheduling-distinct designs (design_key varies with the array)
# crossed with emission-only variations (design_key does not vary).
ARRAYS = [(2, 2), (2, 3), (3, 2), (3, 3)]
BACKENDS = ["verilog", "hls_c"]
MODULES = ["lego_top", "alt_top"]


def record_identity(result) -> str:
    """Canonical bytes of a result's record plus its design (which the
    record names rather than carries), minus the timing fields."""
    out = {k: v for k, v in result.to_record().items()
           if k not in ("elapsed_s", "phases")}
    return canonical_dumps(dict(out, design=result.design))


def schedule_count() -> float:
    """Schedule-phase executions so far, process-wide (pool workers
    merge their deltas into the same registry)."""
    return get_registry().value("repro_phase_seconds", phase="schedule")


def random_batch(rng: random.Random, n: int) -> list[DesignRequest]:
    """A batch mixing exact duplicates with backend/module-only
    variants of a handful of scheduled designs."""
    return [DesignRequest(kernel="gemm", dataflows=("KJ",),
                          array=rng.choice(ARRAYS),
                          backend=rng.choice(BACKENDS),
                          module=rng.choice(MODULES))
            for _ in range(n)]


class TestOneSchedulePerDesign:
    def test_randomized_batches(self, tmp_path):
        rng = random.Random(20250807)
        for trial in range(3):
            engine = BatchEngine(
                cache=DesignCache(root=tmp_path / f"c{trial}"))
            batch = random_batch(rng, rng.randrange(6, 18))
            distinct_designs = {r.design_key() for r in batch}
            before = schedule_count()
            results = engine.generate_many(batch)
            assert schedule_count() - before == len(distinct_designs)
            assert all(r.ok for r in results)
            assert len(results) == len(batch)
            # results come back in input order
            for req, res in zip(batch, results):
                assert res.spec_hash == req.spec_hash()

    def test_planner_counters(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = [DesignRequest(kernel="gemm", dataflows=("KJ",),
                               array=(2, 2), backend=b)
                 for b in BACKENDS]
        reg = get_registry()
        groups0 = reg.value("repro_planner_groups_total")
        lead0 = reg.value("repro_planner_requests_total", role="leader")
        var0 = reg.value("repro_planner_requests_total", role="variant")
        engine.generate_many(batch)
        assert reg.value("repro_planner_groups_total") - groups0 == 1
        assert reg.value("repro_planner_requests_total",
                         role="leader") - lead0 == 1
        assert reg.value("repro_planner_requests_total",
                         role="variant") - var0 == 1

    def test_warm_batch_plans_nothing(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = random_batch(random.Random(7), 8)
        engine.generate_many(batch)
        before = schedule_count()
        again = engine.generate_many(batch)
        assert schedule_count() == before
        assert all(r.from_cache for r in again)


class TestByteIdentity:
    def test_planned_equals_unplanned(self, tmp_path):
        rng = random.Random(99)
        batch = random_batch(rng, 12)
        planned = BatchEngine(
            cache=DesignCache(root=tmp_path / "planned"))
        baseline = BatchEngine(
            cache=DesignCache(root=tmp_path / "baseline"))
        a = planned.generate_many(batch, plan=True)
        b = baseline.generate_many(batch, plan=False)
        for ra, rb in zip(a, b):
            assert record_identity(ra) == record_identity(rb)

    def test_unplanned_schedules_once_per_cold_spec(self, tmp_path):
        """The baseline the planner beats: plan=False pays one pipeline
        run per unique cold spec (the serial live tier still shares the
        ADG/design within the run, but every spec runs end to end)."""
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = [DesignRequest(kernel="gemm", dataflows=("KJ",),
                               array=(2, 2), backend=b)
                 for b in BACKENDS]
        results = engine.generate_many(batch, plan=False)
        assert all(r.ok for r in results)
        assert len({r.spec_hash for r in results}) == 2


class TestVariantsEmitFromTheLiveDesign:
    """Pooled (``workers=2``): a group runs in one worker, so its variants
    never reload the design the leader scheduled or loaded, and the
    worker writes every record it built."""

    ARRAYS = [(2, 2), (2, 3), (3, 2)]

    def batch(self, module: str = "lego_top") -> list[DesignRequest]:
        return [DesignRequest(kernel="gemm", dataflows=("KJ",), array=a,
                              backend=b, module=module)
                for a in self.ARRAYS for b in BACKENDS]

    @staticmethod
    def loads_per_design(results) -> dict[str, int]:
        loads = {}
        for result in results:
            key = result.request.design_key()
            loads[key] = loads.get(key, 0) + ("design_load" in result.phases)
        return loads

    def test_cold_and_restage(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        cold = engine.generate_many(self.batch(), workers=2)
        assert all(r.ok and not r.from_cache for r in cold)
        assert set(self.loads_per_design(cold).values()) == {0}
        # the parent's memory tier holds every result (a server's next
        # /generate hits on the event loop) but wrote no copy to disk
        assert engine.cache.stats.puts == 0
        for result in cold:
            assert engine.cache.get_memory(result.spec_hash) is not None
        assert all(r.from_cache for r in BatchEngine(cache=DesignCache(
            root=tmp_path / "c")).generate_many(self.batch()))

        restaged = engine.generate_many(self.batch("alt_top"), workers=2)
        assert all(r.ok and "schedule" not in r.phases for r in restaged)
        assert set(self.loads_per_design(restaged).values()) == {1}

    def test_artifacts_match_unplanned_and_in_process(self, tmp_path):
        runs = [BatchEngine(cache=DesignCache(root=tmp_path / str(i)))
                .generate_many(self.batch(), workers=workers, plan=plan)
                for i, (workers, plan) in enumerate(
                    [(2, True), (2, False), (1, True)])]
        pooled, unplanned, in_process = (
            [record_identity(r) for r in run] for run in runs)
        assert pooled == unplanned == in_process


class TestDryRunPlan:
    def test_plan_matches_execution(self, tmp_path):
        rng = random.Random(4242)
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = random_batch(rng, 15)
        plan = engine.plan(batch)
        assert isinstance(plan, BatchPlan)
        hashes = {r.spec_hash() for r in batch}
        designs = {r.design_key() for r in batch}
        assert plan.n_requests == len(batch)
        assert plan.n_unique == len(hashes)
        assert plan.n_duplicates == len(batch) - len(hashes)
        assert plan.n_cached == 0
        assert plan.n_schedules == len(designs)
        assert plan.n_cold == len(hashes)
        before = schedule_count()
        engine.generate_many(batch)
        assert schedule_count() - before == plan.n_schedules

    def test_plan_sees_cache_hits_without_touching_stats(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = random_batch(random.Random(5), 10)
        engine.generate_many(batch)
        stats = engine.cache.stats.as_dict()
        plan = engine.plan(batch)
        assert plan.n_cached == plan.n_unique
        assert plan.n_cold == 0 and plan.n_schedules == 0
        assert engine.cache.stats.as_dict() == stats

    def test_group_membership(self):
        engine = BatchEngine(cache=None)
        reqs = [DesignRequest(kernel="gemm", dataflows=("KJ",),
                              array=(2, 2), backend=b) for b in BACKENDS]
        # cacheless: nothing to share phase records through, so every
        # request leads a group of one
        plan = engine.plan(reqs)
        assert plan.n_schedules == 2 and plan.n_variants == 0

    def test_summary_and_dict(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = [DesignRequest(kernel="gemm", dataflows=("KJ",),
                               array=(2, 2), backend=b)
                 for b in BACKENDS] * 2
        plan = engine.plan(batch)
        d = plan.to_dict()
        assert d == {"n_requests": 4, "n_unique": 2, "n_duplicates": 2,
                     "n_cached": 0, "n_cold": 2, "n_schedules": 1,
                     "n_variants": 1}
        text = summarize_plan(d)
        assert "4 requests" in text and "1 design groups" in text


class TestServedPlan:
    def test_batch_job_carries_plan(self, tmp_path):
        handle = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "cache"))).start()
        try:
            with ServiceClient.from_url(handle.url) as client:
                specs = [{"kernel": "gemm", "dataflows": ["KJ"],
                          "array": [2, 2], "backend": b}
                         for b in BACKENDS]
                job_id = client.batch(specs)
                job = client.wait(job_id)
                assert job["status"] == "done"
                assert job["plan"]["n_requests"] == 2
                assert job["plan"]["n_schedules"] == 1
                assert job["plan"]["n_variants"] == 1
                assert job["result"]["plan"] == job["plan"]
                summaries = {j["id"]: j for j in client.jobs()}
                assert summaries[job_id]["plan"] == job["plan"]
        finally:
            handle.stop()
