"""Fault injection against the batch planner.

A design that fails *during scheduling* must poison exactly its own
plan group: every request that shares the broken ``design_key`` fails
with the original traceback attached, sibling groups complete
untouched, and nothing broken lands in the cache, so a retry
recomputes (and can heal).  A leader that
fails only at *emission* must not drag its variants down — the shared
scheduled design exists, so each variant emits for itself.
"""

import pytest

import repro.service.spec as spec_mod
from repro.service import BatchEngine, DesignCache
from repro.service.spec import DesignRequest

POISONED_ARRAY = (3, 3)
BACKENDS = ["verilog", "hls_c"]


def batch_of(*arrays) -> list[DesignRequest]:
    """One request per (array, backend) pair — every array is a
    distinct plan group of one leader + one variant."""
    return [DesignRequest(kernel="gemm", dataflows=("KJ",),
                          array=array, backend=backend)
            for array in arrays for backend in BACKENDS]


@pytest.fixture()
def poisoned_schedule(monkeypatch):
    """Make the scheduled-design build blow up for POISONED_ARRAY;
    yields the list of poisoned build attempts."""
    real = spec_mod._build_scheduled_design
    attempts: list[DesignRequest] = []

    def build(request, cache, phases):
        if tuple(request.array) == POISONED_ARRAY:
            attempts.append(request)
            raise RuntimeError("injected schedule fault")
        return real(request, cache, phases)

    monkeypatch.setattr(spec_mod, "_build_scheduled_design", build)
    return attempts


class TestScheduleFault:
    def test_poison_stays_in_its_group(self, tmp_path,
                                       poisoned_schedule):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = batch_of((2, 2), POISONED_ARRAY, (2, 3))
        results = engine.generate_many(batch)
        by_array = {}
        for req, res in zip(batch, results):
            by_array.setdefault(tuple(req.array), []).append(res)

        # the poisoned group: every member failed, each carrying the
        # injected fault's full traceback
        for res in by_array[POISONED_ARRAY]:
            assert not res.ok
            assert "injected schedule fault" in res.error
            assert res.traceback and "RuntimeError" in res.traceback
        # sibling groups: untouched
        for array in ((2, 2), (2, 3)):
            assert all(res.ok for res in by_array[array])
        # the leader's one failed build was *propagated* to the
        # variant, not retried once per group member
        assert len(poisoned_schedule) == 1

    def test_failures_are_not_cached(self, tmp_path, poisoned_schedule):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = batch_of(POISONED_ARRAY)
        engine.generate_many(batch)
        for req in batch:
            assert req.spec_hash() not in engine.cache

    def test_retry_recomputes_and_heals(self, tmp_path, monkeypatch):
        """The cache holds nothing from a failed run: un-poisoning the schedule and resubmitting the same
        batch succeeds end to end."""
        real = spec_mod._build_scheduled_design
        poisoned = {"active": True}

        def build(request, cache, phases):
            if (poisoned["active"]
                    and tuple(request.array) == POISONED_ARRAY):
                raise RuntimeError("injected schedule fault")
            return real(request, cache, phases)

        monkeypatch.setattr(spec_mod, "_build_scheduled_design", build)
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = batch_of(POISONED_ARRAY)
        first = engine.generate_many(batch)
        assert not any(r.ok for r in first)

        poisoned["active"] = False
        second = engine.generate_many(batch)
        assert all(r.ok for r in second)
        assert all(not r.from_cache for r in second)

    def test_unplanned_path_fails_identically(self, tmp_path,
                                              poisoned_schedule):
        """plan=False reaches the same per-request failure capture —
        the planner changes who pays for the failure, not its shape."""
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        results = engine.generate_many(batch_of(POISONED_ARRAY),
                                       plan=False)
        for res in results:
            assert not res.ok
            assert "injected schedule fault" in res.error
            assert res.traceback


class TestEmitFault:
    def test_leader_emit_failure_spares_variants(self, tmp_path,
                                                 monkeypatch):
        """The leader fails *after* the design phase (emission only):
        the scheduled design is in the cache, so its variants emit for
        themselves instead of inheriting the leader's failure."""
        from repro import backends as backends_mod

        real = backends_mod.emit_artifacts

        def emit(family, design, module_name="lego_top", context=None):
            if family.name == "verilog":
                raise RuntimeError("injected emit fault")
            return real(family, design, module_name=module_name,
                        context=context)

        monkeypatch.setattr(backends_mod, "emit_artifacts", emit)
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        batch = batch_of((2, 2))  # leader verilog, variant hls_c
        results = engine.generate_many(batch)
        by_backend = {r.request.backend: r for r in results}
        assert not by_backend["verilog"].ok
        assert "injected emit fault" in by_backend["verilog"].error
        assert by_backend["hls_c"].ok
        assert by_backend["hls_c"].rtl


class TestPooledFault:
    def test_pooled_leaders_report_faults(self, tmp_path):
        """Worker processes capture failures the same way: a kernel
        whose dataflow name is invalid fails in the worker, and the
        traceback crosses the pool boundary intact."""
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"))
        good = [DesignRequest(kernel="gemm", dataflows=("KJ",),
                              array=a) for a in ((2, 2), (2, 3))]
        bad = [DesignRequest(kernel="gemm", dataflows=("XX",),
                             array=(3, 2))]
        results = engine.generate_many(good + bad, workers=2)
        assert [r.ok for r in results] == [True, True, False]
        assert results[2].traceback
