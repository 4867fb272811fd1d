"""Replay properties of DSE searches.  A search is a deterministic
function of its seed, and every row it computes is stored in the design
cache as soon as it exists, so rerunning an interrupted search over the
same cache is its resume path.  These tests hold that to bit-for-bit
equality: the same archs in the same order with the same raw
cycles/energy floats, and the same ``SearchResult`` record, for many
seeds, strategies and interruption points."""

import json

import pytest

import repro.service.engine as engine
import repro.sim.perf_model as perf
from repro.dse import (DesignSpace, run_search, space_from_dict,
                       space_to_dict)
from repro.models import zoo
from repro.service import DesignCache
from repro.sim.energy_model import TSMC28

SPACE = DesignSpace(arrays=((8, 8), (16, 16), (8, 32)),
                    buffer_kb=(128.0, 256.0),
                    dataflow_sets=(("ICOC",), ("MN", "ICOC")))
MODELS = [zoo.lenet()]
SEEDS = range(6)


class Interrupted(Exception):
    """Stands in for a kill: raised by the row computation."""


@pytest.fixture
def evaluations(monkeypatch):
    """Every row the evaluator asks ``engine.evaluate_archs`` for, in
    order, as ``(model names, arch name, row)``."""
    log = []
    original = engine.evaluate_archs

    def recording(models, archs, tech, **kwargs):
        rows = original(models, archs, tech, **kwargs)
        names = [m.name for m in models]
        log.extend((names, arch.name, row) for arch, row in zip(archs, rows))
        return rows

    monkeypatch.setattr(engine, "evaluate_archs", recording)
    return log


@pytest.fixture
def computed(monkeypatch):
    """Count the rows actually computed (cache misses), and interrupt
    the run once ``computed["kill_after"]`` rows exist."""
    state = {"rows": 0, "kill_after": None}
    original = engine._eval_arch

    def counting(models, arch, tech):
        if state["rows"] == state["kill_after"]:
            raise Interrupted(f"killed after {state['rows']} rows")
        state["rows"] += 1
        return original(models, arch, tech)

    monkeypatch.setattr(engine, "_eval_arch", counting)
    return state


def search(strategy, seed, cache=None, max_evals=8):
    return run_search(MODELS, SPACE, strategy=strategy, seed=seed,
                      max_evals=max_evals, cache=cache)


class TestBitForBitReplay:
    @pytest.mark.parametrize("strategy", ["exhaustive", "anneal",
                                          "halving"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_eval_sequence_identical(self, evaluations, strategy, seed):
        """Same seed, same evaluation sequence, same result record."""
        first = search(strategy, seed).to_json()
        sequence = list(evaluations)
        evaluations.clear()
        second = search(strategy, seed).to_json()
        assert sequence and evaluations == sequence
        assert json.dumps(second) == json.dumps(first)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_eval_steps_anneal(self, tmp_path, computed, seed):
        """The finest interruption granularity: an anneal killed after
        any single evaluation replays over its cache to the uninterrupted
        result, computing only the rows the dead run had not stored."""
        full = search("anneal", seed, max_evals=6).to_json()
        total = computed["rows"]
        assert total >= 2
        for kill_after in range(1, total):
            root = tmp_path / f"killed-after-{kill_after}"
            computed.update(rows=0, kill_after=kill_after)
            with pytest.raises(Interrupted):
                search("anneal", seed, DesignCache(root=root), max_evals=6)
            computed.update(rows=0, kill_after=None)
            replay = search("anneal", seed, DesignCache(root=root),
                            max_evals=6)
            assert json.dumps(replay.to_json()) == json.dumps(full)
            assert computed["rows"] == total - kill_after

    def test_interrupted_run_stores_a_prefix(self, tmp_path, evaluations,
                                             computed):
        """Rows are durable as they are computed: an exhaustive sweep
        (one ``evaluate_archs`` call) killed after two rows leaves
        exactly the first two rows of the uninterrupted sequence on
        disk."""
        search("exhaustive", 0)
        fingerprints = [engine.model_fingerprint(m) for m in MODELS]
        archs = {a.name: a for a in SPACE.points()}
        keys = [engine._eval_key(fingerprints, archs[name], TSMC28)
                for _names, name, _row in evaluations]
        computed.update(rows=0, kill_after=2)
        cache = DesignCache(root=tmp_path)
        with pytest.raises(Interrupted):
            search("exhaustive", 0, cache)
        stored = DesignCache(root=tmp_path)
        assert [stored.get(k) is not None for k in keys] \
            == [True, True] + [False] * (len(keys) - 2)
        assert stored.get(keys[1]) == evaluations[1][2]


class TestReplayFromCache:
    def test_cached_rows_make_replay_free(self, tmp_path, monkeypatch):
        """A finished search replayed over the same cache root computes
        nothing: with ``evaluate_model`` raising, the replay still
        returns the identical result, and every lookup is a hit."""
        for strategy in ("exhaustive", "anneal", "halving"):
            root = tmp_path / strategy
            first = search(strategy, 1, DesignCache(root=root)).to_json()

            def boom(*args, **kwargs):
                raise AssertionError("the replay recomputed a cached row")

            with monkeypatch.context() as patch:
                patch.setattr(perf, "evaluate_model", boom)
                cache = DesignCache(root=root)
                replay = search(strategy, 1, cache).to_json()
            assert json.dumps(replay) == json.dumps(first)
            assert cache.stats.misses == 0 and cache.stats.hits > 0


class TestSpaceFormat:
    def test_space_roundtrip(self):
        clone = space_from_dict(json.loads(json.dumps(
            space_to_dict(SPACE))))
        assert clone == SPACE
