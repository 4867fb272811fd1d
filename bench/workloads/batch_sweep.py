"""``batch_sweep``: the planner, the worker pool, spec hashing, and the
cache used the *other* way from ``serve_warm`` — disk and phase-tier
writes and cross-process reads instead of memory-tier reads — so a cache
change that helps one and costs the other shows.  Designs are tiny
(gemm-KJ @2x2), so generator time is small.

Per rep, on a fresh cache directory:

1. ``cold_batch`` — 1000 requests = 60 scheduling-distinct designs x
   {verilog, hls_c} + 880 duplicates, ``workers=2``;
2. ``warm_batch`` — the same list replayed through a *new* cache object
   over the same directory (a second process's view: disk-tier hits);
3. ``restage_batch`` — the same 60 designs x 2 backends under a new
   module name: must be served by the phase tier and only emit.

``--seed`` picks the base of the ``k`` bounds, the duplicates and the
request order.
"""

from __future__ import annotations

import time

from harness import Workload

WORKERS = 2


class BatchSweep(Workload):
    name = "batch_sweep"
    op_layers = {"cold_batch": "engine.cold_batch_ms",
                 "warm_batch": "engine.warm_batch_ms",
                 "restage_batch": "engine.restage_batch_ms"}

    def setup(self) -> None:
        import repro.service.cache as cache_module
        import repro.service.engine as engine_module
        import repro.service.spec as spec_module

        self.cache_module = cache_module
        self.engine_module = engine_module
        self.spec_module = spec_module
        rng = self.ctx.rng
        self.n_designs, n_requests = (12, 100) if self.ctx.quick else (60,
                                                                       1000)
        base = 8 + rng.randrange(8)
        self.designs = [dict(kernel="gemm", dataflows=("KJ",), array=(2, 2),
                             bounds=(("k", base + i),))
                        for i in range(self.n_designs)]
        self.unique = [spec_module.DesignRequest(backend=backend, **spec)
                       for spec in self.designs
                       for backend in ("verilog", "hls_c")]
        self.requests = self.unique + [
            rng.choice(self.unique)
            for _ in range(n_requests - len(self.unique))]
        rng.shuffle(self.requests)
        self.ctx.info["k_base"] = base
        self.last: dict = {}

    def _restage(self, index: int) -> list:
        return [self.spec_module.DesignRequest(
            backend=backend, module=f"restage_{index}", **spec)
            for spec in self.designs for backend in ("verilog", "hls_c")]

    def _engine(self, root: str):
        cache = self.cache_module.DesignCache(root=root)
        return self.engine_module.BatchEngine(cache=cache)

    @staticmethod
    def _scheduled(results) -> int:
        unique = {r.spec_hash: r for r in results}
        return sum("schedule" in r.phases for r in unique.values())

    def rep(self, index: int) -> None:
        root = self.ctx.fresh_dir("batch-cache")
        flights_before = self._flights()
        cold_engine = self._engine(root)
        with self.ctx.op("cold_batch") as op:
            cold = cold_engine.generate_many(self.requests, workers=WORKERS)
            op.n = len(cold)
            op.bad = sum(not r.ok for r in cold)
        warm_engine = self._engine(root)
        with self.ctx.op("warm_batch") as op:
            warm = warm_engine.generate_many(self.requests, workers=WORKERS)
            op.n = len(warm)
            op.bad = sum(not (r.ok and r.from_cache) for r in warm)
        restage_requests = self._restage(index)
        with self.ctx.op("restage_batch") as op:
            restaged = warm_engine.generate_many(restage_requests,
                                                 workers=WORKERS)
            op.n = len(restaged)
            op.bad = sum(not r.ok or "schedule" in r.phases
                         for r in restaged)
        self.last = {
            "root": root, "cold": cold, "restaged": restaged,
            "stats": [cold_engine.cache.stats, warm_engine.cache.stats],
            "flights": {k: v - flights_before[k]
                        for k, v in self._flights().items()},
            "identical": all(a.artifacts == b.artifacts
                             for a, b in zip(cold, warm)),
        }

    def _flights(self) -> dict:
        from repro.obs import get_registry

        registry = get_registry()
        return {outcome: sum(
            registry.value("repro_singleflight_total", phase=phase,
                           outcome=outcome)
            for phase in ("request", "design"))
            for outcome in ("lead", "wait")}

    def check(self):
        """Warm replay must return the cold artifacts byte for byte, and
        one design per backend must match an uncached regeneration."""
        failed = []
        if not self.last.get("identical"):
            failed.append("warm replay differs from cold batch")
        by_hash = {r.spec_hash: r for r in self.last.get("cold", [])}
        samples = self.unique[:2]
        for request in samples:
            fresh = self.spec_module.execute_request(request, cache=None)
            got = by_hash.get(request.spec_hash())
            if got is None or not fresh.ok or got.artifacts != fresh.artifacts:
                failed.append(f"{request.backend} batch result differs "
                              "from an uncached regeneration")
        return 1 + len(samples), len(failed), {"batch_check_failed": failed}

    def outcomes(self) -> dict:
        if not self.last:
            return {}
        return {"schedules_run": self._scheduled(self.last["cold"])
                + self._scheduled(self.last["restaged"])}

    def layers(self, traced_reps, e2e) -> dict:
        import probes

        plan_engine = self._engine(self.ctx.fresh_dir("plan-cache"))
        start = time.perf_counter()
        plan = plan_engine.plan(self.requests)
        out = {
            "engine.plan_ms": (time.perf_counter() - start) * 1e3,
            "engine.plan_groups": plan.n_schedules,
            "engine.plan_variants": plan.n_variants,
            "engine.plan_duplicates": plan.n_duplicates,
        }
        # the same two batches with plan=False on their own cache dir (a
        # new cache object for the replay, as in the timed reps): the row
        # the planner has to beat in wall clock, not in schedules saved
        unplanned_root = self.ctx.fresh_dir("unplanned-cache")
        for label in ("cold", "warm"):
            baseline = self._engine(unplanned_root)
            start = time.perf_counter()
            results = baseline.generate_many(self.requests, workers=WORKERS,
                                             plan=False)
            out[f"engine.unplanned_{label}_ms"] = (
                time.perf_counter() - start) * 1e3
            if not all(r.ok for r in results):
                raise RuntimeError("unplanned baseline batch failed")

        hits = sum(s.hits for s in self.last["stats"])
        misses = sum(s.misses for s in self.last["stats"])
        memory_hits = sum(s.memory_hits for s in self.last["stats"])
        out.update({
            "cache.memory_hits": memory_hits,
            "cache.disk_hits": hits - memory_hits,
            "cache.phase_hits": sum(s.phase_hits
                                    for s in self.last["stats"]),
            "cache.misses": misses,
            "cache.evictions": sum(s.evictions
                                   for s in self.last["stats"]),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0,
            "cache.flight_leads": self.last["flights"]["lead"],
            "cache.flight_waits": self.last["flights"]["wait"],
        })
        unique = {r.spec_hash: r
                  for r in self.last["cold"] + self.last["restaged"]}
        for phase in ("adg", "schedule", "emit"):
            out[f"spec.phase_{phase}_ms"] = 1e3 * sum(
                r.phases.get(phase, 0.0) for r in unique.values())
        out.update(probes.cache_probes(self.ctx, self.last["root"],
                                       self.unique))
        out.update(probes.spec_probes(self.unique))
        return out
