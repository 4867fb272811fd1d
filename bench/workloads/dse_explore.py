"""``dse_explore``: the perf model, the mapper-free search strategies and
the engine's evaluation memo do the work; generator and HTTP do none.

Per rep: ``fidelity_eval`` (the seven Fig. 11 models on the Gemmini-like
baseline and on LEGO-MNICOC), then on a 96-point space (6 arrays x 4
buffer sizes x 4 dataflow sets; 96 rather than the old benchmark's 60 so
the strategies can separate) with ResNet50, BERT and MobileNetV2:
``exhaustive``, cold against a fresh disk ``DesignCache`` (the evaluation
memo's write path); ``anneal`` at 40% of the exhaustive budget and
``halving``, both uncached; and ``exhaustive_warm``, the sweep again
through a new cache object over that directory (the memo's read path).

The issue text asked for GPT2 as a fourth model and for the warm replay to
be the anneal.  GPT2 was dropped to fit three reps into a 15 s run.  The
warm replay is the exhaustive sweep because the anneal's replay time
depends on the walk, not on the code: it read 14 to 49 ms across seeds,
which alone moved ``op_ms`` by a quarter.

``--seed`` is the strategy seed of ``anneal`` and ``halving``.
"""

from __future__ import annotations

import math
import time

from harness import Workload

FIG11_MODELS = ("AlexNet", "MobileNetV2", "ResNet50", "EfficientNetV2",
                "BERT", "GPT2", "CoAtNet")
SEARCH_MODELS = ("ResNet50", "BERT", "MobileNetV2")
PAPER_SPEEDUP, PAPER_EFFICIENCY = 3.2, 2.4


class DseExplore(Workload):
    name = "dse_explore"
    op_layers = {"exhaustive": "dse.exhaustive_ms",
                 "anneal": "dse.anneal_ms",
                 "halving": "dse.halving_ms",
                 "exhaustive_warm": "dse.exhaustive_warm_ms"}

    def setup(self) -> None:
        import repro.dse as dse
        import repro.service.cache as cache_module
        import repro.sim.perf_model as perf_model
        from repro.models import zoo

        self.dse = dse
        self.cache_module = cache_module
        self.perf_model = perf_model
        start = time.perf_counter()
        self.fig11 = [zoo.MODEL_BUILDERS[n]() for n in FIG11_MODELS]
        self.ctx.info["models.zoo_build_ms"] = (
            time.perf_counter() - start) * 1e3
        wanted = SEARCH_MODELS[:1] if self.ctx.quick else SEARCH_MODELS
        self.models = [m for m, n in zip(self.fig11, FIG11_MODELS)
                       if n in wanted]
        self.lego = perf_model.ArchPerf(
            name="LEGO-MNICOC", dataflows=("MN", "ICOC", "OCOH"))
        if self.ctx.quick:
            self.space = dse.DesignSpace(arrays=((8, 8), (16, 16)),
                                         buffer_kb=(128.0, 256.0))
        else:
            self.space = dse.DesignSpace(
                arrays=((8, 8), (16, 16), (8, 32), (32, 8), (16, 32),
                        (32, 16)),
                buffer_kb=(64.0, 128.0, 256.0, 512.0))
        self.budget = max(4, int(0.4 * self.space.size()))
        self.last: dict = {}

    def _search(self, strategy: str, cache=None, max_evals=None):
        return self.dse.run_search(self.models, self.space,
                                   strategy=strategy, cache=cache,
                                   max_evals=max_evals, seed=self.ctx.seed)

    def rep(self, index: int) -> None:
        evaluate = self.perf_model.evaluate_model
        with self.ctx.op("fidelity_eval") as op:
            pairs = [(evaluate(m, self.perf_model.GEMMINI_LIKE),
                      evaluate(m, self.lego)) for m in self.fig11]
            op.n = 2 * len(pairs)
        root = self.ctx.fresh_dir("dse-cache")
        with self.ctx.op("exhaustive") as op:
            exhaustive = self._search(
                "exhaustive", cache=self.cache_module.DesignCache(root=root))
            op.ok = exhaustive.best is not None
        with self.ctx.op("anneal") as op:
            anneal = self._search("anneal", max_evals=self.budget)
            op.ok = anneal.best is not None
        with self.ctx.op("halving") as op:
            halving = self._search("halving")
            op.ok = halving.best is not None
        with self.ctx.op("exhaustive_warm") as op:
            warm = self._search(
                "exhaustive", cache=self.cache_module.DesignCache(root=root))
            op.ok = (warm.best is not None
                     and warm.best.arch == exhaustive.best.arch
                     and warm.best.edp == exhaustive.best.edp)
        self.last = {"pairs": pairs, "exhaustive": exhaustive,
                     "anneal": anneal, "halving": halving, "warm": warm}

    def _ratios(self) -> tuple[float, float]:
        pairs = self.last["pairs"]
        speed = sum(math.log(lego.gops / gem.gops) for gem, lego in pairs)
        eff = sum(math.log(lego.gops_per_watt / gem.gops_per_watt)
                  for gem, lego in pairs)
        return math.exp(speed / len(pairs)), math.exp(eff / len(pairs))

    def check(self):
        failed = []
        exhaustive = self.last["exhaustive"]
        edps = [p.energy_pj * p.cycles for p in exhaustive.points]
        if len(edps) != self.space.size():
            failed.append("exhaustive did not cover the space")
        if not edps or min(edps) != exhaustive.best.edp:
            failed.append("exhaustive best is not the minimum EDP")
        for label in ("anneal", "halving", "warm"):
            best = self.last[label].best
            if best is None or best.edp < exhaustive.best.edp:
                failed.append(f"{label} best beats the exhaustive optimum")
        if any(lego.gops <= gem.gops for gem, lego in self.last["pairs"]):
            failed.append("LEGO not faster than the Gemmini baseline "
                          "on every Fig. 11 model")
        return 4, len(failed), {"dse_check_failed": failed}

    def outcomes(self) -> dict:
        speedup, efficiency = self._ratios()
        self.ctx.info["paper_deviation"] = {
            "speedup_vs_gemmini": speedup / PAPER_SPEEDUP - 1.0,
            "efficiency_vs_gemmini": efficiency / PAPER_EFFICIENCY - 1.0}
        self.ctx.info["search"] = {
            f"{label}_best": [self.last[label].best.arch.name,
                              self.last[label].best.edp,
                              self.last[label].evals_used]
            for label in ("exhaustive", "anneal", "halving", "warm")}
        return {"best_edp": self.last["exhaustive"].best.edp,
                "speedup_vs_gemmini": speedup,
                "efficiency_vs_gemmini": efficiency}

    def layers(self, traced_reps, e2e) -> dict:
        from repro.mapper import map_model

        best = self.last["exhaustive"].best.edp
        out = {"models.zoo_build_ms": self.ctx.info["models.zoo_build_ms"]}
        for label in ("exhaustive", "anneal", "halving"):
            out[f"dse.evals_{label}"] = self.last[label].evals_used
        out["dse.point_eval_ms"] = (e2e["op_kind_wall_ms"]["exhaustive"]
                                    / self.last["exhaustive"].evals_used)
        for label in ("anneal", "halving"):
            out[f"dse.gap_{label}"] = self.last[label].best.edp / best - 1.0
        # a fresh arch name keys past the mapper's process-wide memo
        arch = self.perf_model.ArchPerf(
            name=f"probe-{time.time_ns()}", dataflows=self.lego.dataflows)
        start = time.perf_counter()
        map_model(self.models[0], arch)
        out["mapper.map_model_ms"] = (time.perf_counter() - start) * 1e3
        return out
