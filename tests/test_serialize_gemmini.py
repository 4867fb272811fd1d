"""Tests for design serialization and the Gemmini-class perf view."""

import json

import pytest

from repro.backend import generate, run_backend
from repro.core import kernels
from repro.core.frontend import build_adg
from repro.serialize import design_from_dict, design_to_dict
from repro.sim.perf_model import GEMMINI_LIKE


@pytest.fixture(scope="module")
def design():
    wl = kernels.gemm(8, 8, 8)
    dfa = kernels.gemm_dataflow("IJ", wl, 4, 4)
    dfb = kernels.gemm_dataflow("KJ", wl, 4, 4)
    return run_backend(generate(build_adg([dfa, dfb])))


def _roundtrip(design):
    """Through JSON text, as the cache stores it."""
    return design_from_dict(json.loads(json.dumps(design_to_dict(design))))


class TestSerialization:
    def test_dict_form_is_json_serializable(self, design):
        blob = json.dumps(design_to_dict(design))
        assert "lego-design-v1" in blob

    def test_roundtrip_graph(self, design):
        loaded = _roundtrip(design)
        assert len(loaded.dag.nodes) == len(design.dag.nodes)
        assert len(loaded.dag.edges) == len(design.dag.edges)
        # Delay-matching results survive.
        orig_el = {e.uid: e.el for e in design.dag.edges}
        assert {e.uid: e.el for e in loaded.dag.edges} == orig_el
        assert set(loaded.configs) == set(design.configs)
        assert {c.dataflow.name for c in loaded.configs.values()} \
            == set(design.configs)

    def test_loaded_graph_emits_same_register_bits(self, design):
        loaded = _roundtrip(design)
        assert loaded.dag.pipeline_register_bits() == \
            design.dag.pipeline_register_bits()

    def test_format_validation(self):
        with pytest.raises(ValueError, match="not a LEGO design dictionary"):
            design_from_dict({"format": "something-else"})

    def test_configs_capture_addrgens(self, design):
        data = design_to_dict(design)
        for name, cfg in data["configs"].items():
            assert cfg["addrgen"], name
            any_ag = next(iter(cfg["addrgen"].values()))
            assert {"rt", "mdt", "offset", "dims"} <= set(any_ag)


class TestGemminiEstimate:
    def test_perf_view_is_restricted(self):
        assert GEMMINI_LIKE.dataflows == ("ICOC",)
        assert GEMMINI_LIKE.im2col_conv
        assert not GEMMINI_LIKE.has_ppu
