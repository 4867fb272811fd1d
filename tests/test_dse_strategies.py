"""Tests for the pluggable DSE search strategies (`repro.dse.strategies`)."""

import pytest

from repro.cli import main as cli_main
from repro.dse import (STRATEGIES, DesignSpace, Exhaustive, PointEvaluator,
                       SimulatedAnnealing, SuccessiveHalving, explore,
                       get_strategy, run_search)
from repro.models import zoo
from repro.models.layers import Model
from repro.service.cache import DesignCache

SMALL = DesignSpace(arrays=((8, 8), (16, 16)), buffer_kb=(128.0, 256.0),
                    dataflow_sets=(("ICOC",), ("MN", "ICOC")))


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_strategy("exhaustive"), Exhaustive)
        assert isinstance(get_strategy("anneal"), SimulatedAnnealing)
        assert isinstance(get_strategy("annealing"), SimulatedAnnealing)
        assert isinstance(get_strategy("halving"), SuccessiveHalving)
        assert isinstance(get_strategy("sh"), SuccessiveHalving)

    def test_instance_passthrough(self):
        strat = SimulatedAnnealing(restarts=3)
        assert get_strategy(strat) is strat

    def test_constructor_kwargs(self):
        assert get_strategy("halving", eta=4).eta == 4

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            get_strategy("gradient-descent")
        with pytest.raises(ValueError, match="strategy"):
            get_strategy(None)

    def test_bad_eta_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            SuccessiveHalving(eta=1)


class TestExhaustive:
    def test_covers_space(self):
        result = run_search([zoo.lenet()], SMALL)
        assert result.strategy == "exhaustive"
        assert result.points_evaluated == SMALL.size() == 8
        assert result.evals_used == float(SMALL.size())
        assert len(result.points) == 8

    def test_points_sorted_best_first(self):
        result = run_search([zoo.lenet()], SMALL, objective="edp")
        edps = [p.edp for p in result.points]
        assert edps == sorted(edps)
        assert result.best is result.points[0]

    def test_explore_wrapper_unchanged(self):
        points = explore([zoo.lenet()], SMALL)
        assert len(points) == 8
        assert [p.arch for p in points] == \
            [p.arch for p in run_search([zoo.lenet()], SMALL).points]


class TestSimulatedAnnealing:
    def test_budget_respected(self):
        result = run_search([zoo.lenet()], SMALL, strategy="anneal",
                            max_evals=3, seed=0)
        assert 1 <= result.points_evaluated <= 3
        assert len(result.points) <= 3

    def test_deterministic_per_seed(self):
        a = run_search([zoo.lenet()], SMALL, strategy="anneal",
                       max_evals=5, seed=7)
        b = run_search([zoo.lenet()], SMALL, strategy="anneal",
                       max_evals=5, seed=7)
        assert [p.arch for p in a.points] == [p.arch for p in b.points]
        assert a.evals_used == b.evals_used

    def test_finds_best_with_partial_budget(self):
        exhaustive = run_search([zoo.lenet()], SMALL)
        anneal = run_search([zoo.lenet()], SMALL, strategy="anneal",
                            max_evals=6, seed=0)
        assert anneal.points_evaluated < exhaustive.points_evaluated
        assert anneal.best.edp <= 1.05 * exhaustive.best.edp

    def test_single_point_space(self):
        space = DesignSpace(arrays=((8, 8),), buffer_kb=(128.0,),
                            dataflow_sets=(("ICOC",),))
        result = run_search([zoo.lenet()], space, strategy="anneal",
                            max_evals=4)
        assert result.points_evaluated == 1


class TestSuccessiveHalving:
    def test_costs_less_than_exhaustive(self):
        exhaustive = run_search([zoo.lenet()], SMALL)
        halving = run_search([zoo.lenet()], SMALL,
                             strategy=SuccessiveHalving(eta=4))
        assert halving.evals_used < exhaustive.evals_used
        assert halving.points_evaluated < exhaustive.points_evaluated
        assert halving.best.edp <= 1.05 * exhaustive.best.edp

    def test_max_evals_caps_promotions(self):
        result = run_search([zoo.lenet()], SMALL,
                            strategy=SuccessiveHalving(eta=2), max_evals=4)
        assert result.evals_used <= 4.0

    def test_tiny_budget_subsamples_proxy_sweep(self):
        # A budget smaller than the full proxy sweep must shrink rung 0
        # instead of silently overspending (evals_used > max_evals).
        result = run_search([zoo.lenet()], SMALL, strategy="halving",
                            max_evals=2, seed=0)
        assert result.evals_used <= 2.0
        assert result.best is not None

    def test_proxy_models_stride(self):
        evaluator = PointEvaluator([zoo.lenet()])
        (proxy,) = evaluator.proxy_models(0.25)
        assert 1 <= len(proxy.layers) < len(zoo.lenet().layers)
        assert proxy.name.startswith("LeNet#proxy")


class TestGuidedVsExhaustive:
    SPACE = DesignSpace(arrays=((8, 8), (16, 16), (8, 32), (32, 8),
                                (16, 32)),
                        buffer_kb=(128.0, 256.0, 512.0))

    @pytest.mark.parametrize("strategy", ["anneal", "halving"])
    def test_near_best_at_two_fifths_of_the_evals(self, strategy):
        """Within 5 % of the exhaustive-best EDP for at most 40 % of its
        evaluations, on a 60-point space and two models."""
        models = [zoo.resnet50(), zoo.bert_base()]
        exhaustive = run_search(models, self.SPACE, seed=0)
        assert exhaustive.points_evaluated == self.SPACE.size() == 60
        budget = (int(0.4 * exhaustive.evals_used) - 2
                  if strategy == "anneal" else None)
        guided = run_search(models, self.SPACE, strategy=strategy,
                            max_evals=budget, seed=0)
        assert guided.best.edp <= 1.05 * exhaustive.best.edp
        assert guided.evals_used <= 0.4 * exhaustive.evals_used


class TestDegeneratePoints:
    def test_empty_model_yields_no_points(self):
        result = run_search([Model("empty", ())], SMALL)
        assert result.points == []
        assert result.best is None
        assert result.degenerate_skipped == SMALL.size()

    def test_no_one_watt_fallback(self):
        # The old explorer reported degenerate points as 1 W / 0 GOPS
        # "designs" that won every EDP sort; they must be skipped now.
        points = explore([Model("empty", ())], SMALL)
        assert points == []


class TestAreaBudget:
    def test_screen_applies_to_strategies(self):
        space = DesignSpace(arrays=((8, 8), (32, 32)), buffer_kb=(256.0,),
                            dataflow_sets=(("ICOC",),))
        for strategy in ("exhaustive", "anneal", "halving"):
            result = run_search([zoo.lenet()], space, strategy=strategy,
                                area_budget_mm2=0.5, max_evals=4)
            assert result.points_evaluated < space.size()
            assert all(p.arch.array == (8, 8) for p in result.points)


class TestCacheInterplay:
    def test_warm_revisit_hits_cache(self, tmp_path):
        cache = DesignCache(root=tmp_path / "dse")
        cold = run_search([zoo.lenet()], SMALL, strategy="anneal",
                          max_evals=4, seed=1, cache=cache)
        warm_cache = DesignCache(root=tmp_path / "dse")
        warm = run_search([zoo.lenet()], SMALL, strategy="anneal",
                          max_evals=4, seed=1, cache=warm_cache)
        assert warm_cache.stats.hits == warm.points_evaluated
        assert warm_cache.stats.puts == 0
        assert [p.arch for p in warm.points] == \
            [p.arch for p in cold.points]


class TestEvaluatorAccounting:
    def test_objective_validated(self):
        with pytest.raises(ValueError, match="objective"):
            PointEvaluator([zoo.lenet()], objective="vibes")

    def test_proxy_charged_fractionally(self):
        evaluator = PointEvaluator([zoo.lenet()])
        archs = list(SMALL.points())[:2]
        evaluator.evaluate(archs, models=evaluator.proxy_models(0.25))
        assert 0.0 < evaluator.evals_used < 1.0
        assert evaluator.points_evaluated == 0
        evaluator.evaluate(archs)
        assert evaluator.points_evaluated == 2

    def test_revisits_are_free(self):
        evaluator = PointEvaluator([zoo.lenet()])
        archs = list(SMALL.points())[:3]
        evaluator.evaluate(archs)
        used = evaluator.evals_used
        evaluator.evaluate(archs)
        assert evaluator.evals_used == used


class TestCLIStrategies:
    def test_explore_anneal(self, capsys):
        rc = cli_main(["explore", "--models", "LeNet", "--strategy",
                       "anneal", "--max-evals", "5", "--seed", "0",
                       "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strategy anneal" in out and "Pareto frontier" in out

    def test_explore_halving(self, capsys):
        rc = cli_main(["explore", "--models", "LeNet", "--strategy",
                       "halving", "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "strategy halving" in out

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["explore", "--strategy", "bogosort"])
