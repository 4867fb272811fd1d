"""The perf model's layer-result memo: it has an oracle (the un-memoised
body, ``_shape_perf.__wrapped__``), a complete key, results that are
safe to share, and a mapper that cannot disagree with ``evaluate_model``.

The pinned outcomes and digests at the bottom were computed by this
file's own helpers on the commit *before* the memo existed (61166fd).
"""

import contextlib
import dataclasses
import hashlib
import math
import struct
import sys
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dse as dse
import repro.sim.perf_model as pm
from repro.mapper import choose_mapping, map_model
from repro.models import zoo
from repro.models.layers import (AttentionLayer, ConvLayer, LinearLayer,
                                 Model, PPULayer)
from repro.sim.energy_model import TSMC28

FIG11 = ("AlexNet", "MobileNetV2", "ResNet50", "EfficientNetV2", "BERT",
         "GPT2", "CoAtNet")
LEGO = pm.ArchPerf(name="LEGO-MNICOC", dataflows=("MN", "ICOC", "OCOH"))
DATAFLOWS = ("MN", "ICOC", "KHOH", "OCOH")
NOT_IN_KEY = ("name", "dataflows")


def oracle(layer, arch, dataflow, tech=TSMC28):
    """A fresh run of the un-memoised body."""
    return pm._shape_perf.__wrapped__(
        dataclasses.replace(layer, name=""), pm._resources(arch, tech),
        dataflow)


@contextlib.contextmanager
def memo_of(entries):
    """Swap in a memo of *entries* slots over the same body, so a test
    can reach eviction without 16k questions."""
    real = pm._shape_perf
    pm._shape_perf = lru_cache(maxsize=entries)(real.__wrapped__)
    try:
        yield pm._shape_perf
    finally:
        pm._shape_perf = real


def flipped(value):
    """A value of the same type that differs from *value*."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, tuple):
        return value[:-1] + (flipped(value[-1]),)
    raise TypeError(f"no flip for {value!r}")


convs = st.builds(
    ConvLayer, name=st.text(max_size=3), n=st.integers(1, 2),
    ic=st.sampled_from((3, 16, 48)), oc=st.sampled_from((8, 32, 96)),
    ih=st.sampled_from((7, 14, 56)), iw=st.sampled_from((7, 14, 56)),
    kh=st.sampled_from((1, 3)), kw=st.sampled_from((1, 3)),
    stride=st.sampled_from((1, 2)))
depthwise = st.builds(
    lambda name, c, hw, k, stride: ConvLayer(name, 1, c, c, hw, hw, k, k,
                                             stride=stride, groups=c),
    st.text(max_size=3), st.sampled_from((16, 96, 144)),
    st.sampled_from((7, 28, 56)), st.sampled_from((3, 5)),
    st.sampled_from((1, 2)))
linears = st.builds(LinearLayer, name=st.text(max_size=3),
                    m=st.sampled_from((1, 17, 128, 512)),
                    n=st.sampled_from((64, 768, 3072)),
                    k=st.sampled_from((64, 768, 4096)))
attentions = st.builds(AttentionLayer, name=st.text(max_size=3),
                       heads=st.sampled_from((1, 12)),
                       q_len=st.sampled_from((1, 128)),
                       kv_len=st.sampled_from((128, 1024)),
                       d_head=st.sampled_from((32, 64)))
archs = st.builds(
    pm.ArchPerf, name=st.text(max_size=3),
    array=st.sampled_from(((8, 8), (16, 16), (8, 32), (32, 16))),
    buffer_kb=st.sampled_from((16.0, 64.0, 256.0, 512.0)),
    dram_gbps=st.sampled_from((8.0, 16.0, 64.0)),
    weight_load_overhead=st.booleans(), im2col_conv=st.booleans(),
    has_ppu=st.booleans())


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(layer=st.one_of(convs, depthwise, linears, attentions),
           arch=archs, dataflow=st.sampled_from(DATAFLOWS))
    def test_memoised_equals_fresh_before_and_after_eviction(
            self, layer, arch, dataflow):
        want = oracle(layer, arch, dataflow)
        with memo_of(4) as memo:
            first = pm.evaluate_layer(layer, arch, dataflow)
            assert pm.evaluate_layer(layer, arch, dataflow) is first
            for m in range(2, 7):   # five other questions: evicts the first
                pm.evaluate_layer(LinearLayer("f", m, 8, 8), arch, "MN")
            misses = memo.cache_info().misses
            again = pm.evaluate_layer(layer, arch, dataflow)
            assert memo.cache_info().misses == misses + 1
            assert memo.cache_info().currsize <= 4
        assert first == want and again == want   # dataclass ==: every field

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10 ** 7), fn=st.sampled_from(
        ("relu", "gelu", "softmax", "layernorm")), arch=archs)
    def test_ppu_layers_too(self, n, fn, arch):
        model = Model("m", (PPULayer("p", fn, n), PPULayer("q", fn, n)))
        perf = pm.evaluate_model(model, arch)
        want = pm._ppu_layer_perf(PPULayer("", fn, n),
                                  pm._resources(arch, TSMC28))
        assert perf.layers == [want, want]
        assert perf.layers[0] is perf.layers[1]


class TestKey:
    BASE = pm.ArchPerf()
    LAYERS = (ConvLayer("c", 1, 16, 32, 14, 14, 3, 3),
              LinearLayer("l", 64, 64, 64),
              AttentionLayer("a", 2, 16, 32, 8),
              PPULayer("p", "relu", 1000))

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(pm.ArchPerf)])
    def test_every_arch_field_but_two_is_in_the_key(self, name):
        other = dataclasses.replace(
            self.BASE, **{name: flipped(getattr(self.BASE, name))})
        same = pm._resources(other, TSMC28) == pm._resources(self.BASE,
                                                            TSMC28)
        assert same == (name in NOT_IN_KEY)
        if same:   # ... and a per-dataflow result does not notice the flip
            layer = self.LAYERS[0]
            assert (pm.evaluate_layer(layer, other, "MN")
                    is pm.evaluate_layer(layer, self.BASE, "MN"))

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(TSMC28)])
    def test_every_tech_field_is_in_the_key(self, name):
        tech = dataclasses.replace(
            TSMC28, **{name: flipped(getattr(TSMC28, name))})
        assert (pm._resources(self.BASE, tech)
                != pm._resources(self.BASE, TSMC28))

    @pytest.mark.parametrize("layer", LAYERS, ids=lambda l: l.name)
    def test_every_layer_field_but_name_is_in_the_key(self, layer):
        for f in dataclasses.fields(layer):
            twin = dataclasses.replace(
                layer, **{f.name: flipped(getattr(layer, f.name))})
            shapes, index = Model("m", (layer, twin)).shapes
            if f.name == "name":
                assert len(shapes) == 1 and index == (0, 0)
            else:
                assert len(shapes) == 2 and index == (0, 1), f.name


class TestSharing:
    def test_results_are_immutable(self):
        perf = pm.evaluate_layer(LinearLayer("l", 64, 64, 64), LEGO, "MN")
        with pytest.raises(AttributeError):   # FrozenInstanceError
            perf.cycles = 0.0
        with pytest.raises((AttributeError, TypeError)):   # slotted
            perf.note = "x"

    def test_two_models_share_a_shape(self):
        shared = dict(m=128, n=768, k=768)
        a = Model("a", (LinearLayer("a0", **shared),
                        PPULayer("a1", "gelu", 4096)))
        b = Model("b", (LinearLayer("b0", 64, 64, 64),
                        LinearLayer("b1", **shared)))
        pa, pb = pm.evaluate_model(a, LEGO), pm.evaluate_model(b, LEGO)
        assert pa.layers[0] == pb.layers[1]
        assert pa.layers[0] is pb.layers[1]

    @pytest.mark.parametrize("name", FIG11)
    def test_totals_sum_in_layer_order(self, name):
        """Totals are ``sum`` over model-layer order of exactly the
        floats a layer-by-layer, un-memoised evaluation produces."""
        model = zoo.MODEL_BUILDERS[name]()
        for arch in (pm.GEMMINI_LIKE, LEGO):
            per_layer = []
            for layer in model.layers:
                if isinstance(layer, PPULayer):
                    per_layer.append(oracle(layer, arch, "ppu"))
                    continue
                cands = [c for c in (oracle(layer, arch, d)
                                     for d in arch.dataflows) if c]
                per_layer.append(min(
                    cands, key=lambda c: (c.cycles, c.energy_pj)))
            perf = pm.evaluate_model(model, arch)
            assert perf.layers == per_layer
            assert perf.total_cycles == sum(l.cycles for l in per_layer)
            assert perf.total_energy_pj == sum(l.energy_pj
                                               for l in per_layer)
            assert perf.total_ops == sum(2 * l.macs for l in per_layer)

    def test_eight_threads_agree_with_serial(self):
        models = [zoo.MODEL_BUILDERS[n]() for n in FIG11]

        def sweep():
            return [(p.total_cycles, p.total_energy_pj, p.total_ops)
                    for m in models
                    for p in (pm.evaluate_model(m, pm.GEMMINI_LIKE),
                              pm.evaluate_model(m, LEGO))]

        serial = sweep()
        results, errors = [], []

        def worker():
            try:
                results.append(sweep())
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # a 64-entry memo under ~470 distinct questions: the threads
            # race on misses, hits and evictions alike
            with memo_of(64) as memo:
                threads = [threading.Thread(target=worker)
                           for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                assert memo.cache_info().currsize <= 64
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert results == [serial] * 8

    def test_the_real_memo_is_bounded(self):
        info = pm.memo_info()
        assert info.maxsize == pm._MEMO_ENTRIES
        assert 0 < info.maxsize < 10 ** 5 and info.currsize <= info.maxsize


class TestMapperAgrees:
    @pytest.mark.parametrize("name", sorted(zoo.MODEL_BUILDERS))
    def test_latency_mapping_is_the_models_pick(self, name):
        model = zoo.MODEL_BUILDERS[name]()
        for arch in (pm.GEMMINI_LIKE, LEGO):
            perf = pm.evaluate_model(model, arch)
            mapped = map_model(model, arch)
            assert [l for l, _ in mapped] == list(model.layers)
            for (layer, mapping), picked in zip(mapped, perf.layers):
                if isinstance(layer, PPULayer):
                    assert mapping is None
                    continue
                best, chosen = choose_mapping(layer, arch, "latency")
                assert chosen is picked
                assert best == mapping
                assert (best.dataflow, best.cycles, best.energy_pj) == (
                    picked.dataflow, picked.cycles, picked.energy_pj)

    def test_energy_objective_ranks_by_energy_then_cycles(self):
        differ = 0
        for layer in zoo.mobilenet_v2().tensor_layers():
            cands = [c for c in (pm.evaluate_layer(layer, LEGO, d)
                                 for d in LEGO.dataflows) if c]
            _, chosen = choose_mapping(layer, LEGO, "energy")
            assert chosen is min(cands,
                                 key=lambda c: (c.energy_pj, c.cycles))
            differ += chosen is not choose_mapping(layer, LEGO)[1]
        assert differ, "the two objectives never disagreed: vacuous test"

    def test_names_are_not_part_of_the_question(self):
        layer = LinearLayer("first", 96, 160, 224)
        choose_mapping(layer, dataclasses.replace(LEGO, name="one"))
        misses = pm.memo_info().misses
        again = choose_mapping(dataclasses.replace(layer, name="second"),
                               dataclasses.replace(LEGO, name="two"))
        assert pm.memo_info().misses == misses
        assert again == choose_mapping(layer, LEGO)

    def test_errors_unchanged(self):
        lin = LinearLayer("fc", 8, 8, 8)
        eyeriss_only = pm.ArchPerf(name="rowstat", dataflows=("KHOH",))
        with pytest.raises(ValueError, match="no feasible mapping for "
                           r"layer LinearLayer\(name='fc'"):
            choose_mapping(lin, eyeriss_only)
        with pytest.raises(ValueError, match="no supported dataflow for "
                           "layer 'fc' on rowstat"):
            pm.evaluate_model(
                Model("m", (PPULayer("p", "relu", 8), lin)), eyeriss_only)
        with pytest.raises(TypeError, match="not a tensor layer"):
            pm.evaluate_layer(PPULayer("p", "relu", 8), LEGO, "MN")
        assert pm.evaluate_layer(lin, LEGO, "ppu") is None


# ---------------------------------------------------------------------------
# Outcomes of the `dse_explore` benchmark, pinned from the parent commit.
# ---------------------------------------------------------------------------

LAYER_NUMBERS = ("cycles", "compute_cycles", "dram_cycles", "ppu_cycles",
                 "dram_bytes", "sram_reads", "sram_writes", "macs",
                 "energy_pj", "utilization", "n_tiles")


def layer_digest(perfs) -> str:
    h = hashlib.sha256()
    for perf in perfs:
        for layer in perf.layers:
            h.update(layer.dataflow.encode())
            h.update(struct.pack(
                "<11d", *(float(getattr(layer, n)) for n in LAYER_NUMBERS)))
    return h.hexdigest()


def point_digest(points) -> str:
    h = hashlib.sha256()
    for p in points:
        h.update(repr(p.arch).encode())
        h.update(struct.pack("<4d", p.gops, p.gops_per_watt, p.cycles,
                             p.energy_pj))
    return h.hexdigest()


class TestPinnedOutcomes:
    def test_fig11_ratios_and_every_layer_number(self):
        models = [zoo.MODEL_BUILDERS[n]() for n in FIG11]
        pairs = [(pm.evaluate_model(m, pm.GEMMINI_LIKE),
                  pm.evaluate_model(m, LEGO)) for m in models]
        speed = math.exp(sum(math.log(lego.gops / gem.gops)
                             for gem, lego in pairs) / len(pairs))
        eff = math.exp(sum(math.log(lego.gops_per_watt / gem.gops_per_watt)
                           for gem, lego in pairs) / len(pairs))
        assert speed == 2.2607352093878146
        assert eff == 1.1681715049308914
        assert layer_digest(p for pair in pairs for p in pair) == (
            "4ef92c31a7a0ea568aa0b7d831017133"
            "e0e1816f885a74e989fa38071c3ce965")

    def test_best_edp_and_all_96_design_points(self):
        # the benchmark's order: float sums are order-sensitive in the
        # last digit (ResNet50 first reads ...603e+17)
        models = [zoo.MODEL_BUILDERS[n]()
                  for n in ("MobileNetV2", "ResNet50", "BERT")]
        space = dse.DesignSpace(
            arrays=((8, 8), (16, 16), (8, 32), (32, 8), (16, 32), (32, 16)),
            buffer_kb=(64.0, 128.0, 256.0, 512.0))
        result = dse.run_search(models, space, strategy="exhaustive", seed=0)
        assert len(result.points) == 96
        assert result.best.edp == 1.0920843952011605e+17
        assert point_digest(result.points) == (
            "883a1d27b7bb1c0dc0224942c5195d36"
            "312cd28fc7970e16b7f0f635b4c42c44")
