"""Integration tests for the LEGO front end (§IV): ADG construction,
fusion heuristics, and memory banking."""

import pytest

from repro.core import kernels
from repro.core.adg import MemoryLayout
from repro.core.frontend import FrontendConfig, build_adg
from repro.core.interconnect import ReuseKind
from repro.core.memory_analysis import (analyze_banks, distribution_switch_size,
                                        fuse_layouts, verify_conflict_free)


class TestSingleDataflowADG:
    def test_gemm_kj_systolic(self):
        wl = kernels.gemm(16, 16, 16)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        adg = build_adg([df])
        stats = adg.stats()
        assert stats["n_fus"] == 16
        # X flows along rows (4 roots), Y drains along columns (4 commit
        # points), W is loaded per-FU (16 data nodes).
        assert len(adg.data_nodes_for("X")) == 4
        assert len(adg.data_nodes_for("Y")) == 4
        assert len(adg.data_nodes_for("W")) == 16
        # Each FU has exactly one X source (either memory or one link).
        for fu in df.fu_coords():
            n_in = len(adg.inputs_of(fu, "X"))
            is_root = any(n.fu == fu for n in adg.data_nodes_for("X"))
            assert n_in + (1 if is_root else 0) == 1

    def test_output_tree_drains(self):
        """Every FU's partial Y must reach a committing data node."""
        wl = kernels.gemm(16, 16, 16)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        adg = build_adg([df])
        nexthop = {c.src: c.dst for c in adg.connections_for("Y")}
        commits = {n.fu for n in adg.data_nodes_for("Y")}
        for fu in df.fu_coords():
            cur, seen = fu, set()
            while cur not in commits:
                assert cur in nexthop and cur not in seen
                seen.add(cur)
                cur = nexthop[cur]

    def test_stationary_recorded(self):
        wl = kernels.gemm(16, 16, 16)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        adg = build_adg([df])
        assert (df.name, "W") in adg.stationary

    def test_conv_ohow_broadcast_weights(self):
        wl = kernels.conv2d(1, 8, 8, 8, 8, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 4, 4)
        adg = build_adg([df])
        # Broadcast chains make W a single data node.
        assert len(adg.data_nodes_for("W")) == 1
        # All W links are zero-depth wires.
        assert all(c.depth == 0 for c in adg.connections_for("W"))

    def test_memory_fetch_cost_controls_reuse(self):
        wl = kernels.conv2d(1, 8, 8, 8, 8, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 4, 4)
        cheap_mem = build_adg([df], FrontendConfig(memory_fetch_cost=0))
        # With free memory ports nothing should bother with delay FIFOs.
        assert not [c for c in cheap_mem.connections if c.depth > 0]

    def test_3d_array(self):
        """LEGO does not limit the number of spatial dims (§IV-A-c)."""
        wl = kernels.conv2d(1, 4, 4, 8, 8, 3, 3)
        from repro.core.dataflow import Dataflow
        df = Dataflow.build(wl, spatial=[("oh", 2), ("ow", 2), ("oc", 2)],
                            control=(0, 0, 0), name="OHOWOC")
        adg = build_adg([df])
        assert adg.n_fus == 8
        assert adg.stats()["n_connections"] > 0


class TestFusion:
    def test_fused_shares_links(self):
        wl = kernels.gemm(16, 16, 16)
        dfi = kernels.gemm_dataflow("IJ", wl, 4, 4)
        dfk = kernels.gemm_dataflow("KJ", wl, 4, 4)
        fused = build_adg([dfi, dfk])
        naive = build_adg([dfi, dfk], FrontendConfig(fuse_heuristic=False))
        assert fused.stats()["n_connections"] <= naive.stats()["n_connections"]
        assert fused.stats()["mux_inputs"] <= naive.stats()["mux_inputs"]
        # Fused links carry both dataflow tags where shared.
        shared = [c for c in fused.connections if len(c.dataflows) == 2]
        assert shared, "IJ and KJ share X movement along j"

    def test_fused_covers_both_dataflows(self):
        wl = kernels.conv2d(1, 8, 8, 8, 8, 3, 3)
        dfa = kernels.conv2d_dataflow("OHOW", wl, 4, 4)
        dfb = kernels.conv2d_dataflow("ICOC", wl, 4, 4)
        adg = build_adg([dfa, dfb])
        for df in (dfa, dfb):
            for tensor in ("X", "W", "Y"):
                # Under each dataflow every FU is spanned: it either has an
                # incoming link, is a data node, or (for outputs) an
                # outgoing link toward a commit point.
                nodes = {n.fu for n in adg.data_nodes_for(tensor, df.name)}
                conns = adg.connections_for(tensor, df.name)
                covered = set(nodes)
                for c in conns:
                    covered.add(c.dst)
                    covered.add(c.src)
                assert covered == set(df.fu_coords()), (df.name, tensor)

    def test_mismatched_shapes_rejected(self):
        wl = kernels.gemm(16, 16, 16)
        dfa = kernels.gemm_dataflow("IJ", wl, 4, 4)
        dfb = kernels.gemm_dataflow("KJ", wl, 2, 8)
        with pytest.raises(ValueError, match="share the FU array shape"):
            build_adg([dfa, dfb])

    def test_duplicate_dataflow_names_rejected(self):
        wl = kernels.gemm(16, 16, 16)
        dfa = kernels.gemm_dataflow("IJ", wl, 4, 4)
        with pytest.raises(ValueError, match="unique"):
            build_adg([dfa, dfa])


class TestMemoryAnalysis:
    def test_fig6a_banking(self):
        """Fig. 6(a): 3 data nodes accessing X[0,0], X[1,0], X[2,0] at t=0
        need 3 banks along IH and 1 along IW."""
        wl = kernels.conv2d(1, 4, 4, 8, 8, 3, 3)
        from repro.core.dataflow import Dataflow
        df = Dataflow.build(wl, spatial=[("kh", 3), ("oh", 1)],
                            control=(0, 0), name="KHOH")
        layout = analyze_banks(df, "X", [(0, 0), (1, 0), (2, 0)])
        # X rank is 4: (n, ic, ih, iw); deltas appear along ih.
        assert layout.bank_shape[2] == 3
        assert layout.bank_shape[3] == 1
        assert verify_conflict_free(layout, df, "X", [(0, 0), (1, 0), (2, 0)])

    def test_gcd_reduction(self):
        """Fig. 6 note: deltas {2, 4} have gcd 2 -> 3 banks, stride 2."""
        layout = MemoryLayout("X", (3,), (2,), 3)
        assert layout.bank_of((0,)) == (0,)
        assert layout.bank_of((2,)) == (1,)
        assert layout.bank_of((4,)) == (2,)
        assert layout.bank_of((6,)) == (0,)

    def test_conflict_freedom_full_frontend(self):
        wl = kernels.conv2d(1, 8, 8, 8, 8, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 4, 4)
        adg = build_adg([df])
        for tensor, layout in adg.memory.items():
            nodes = [n.fu for n in adg.data_nodes_for(tensor, df.name)]
            assert verify_conflict_free(layout, df, tensor, nodes), tensor

    def test_fused_layout_takes_max(self):
        a = MemoryLayout("X", (3, 1), (1, 1), 3)
        b = MemoryLayout("X", (2, 2), (1, 1), 4)
        fused = fuse_layouts([a, b])
        assert fused.n_banks == 4
        assert fused.n_data_nodes == 4

    def test_fuse_rejects_mixed_tensors(self):
        a = MemoryLayout("X", (1,), (1,), 1)
        b = MemoryLayout("Y", (1,), (1,), 1)
        with pytest.raises(ValueError):
            fuse_layouts([a, b])

    def test_switch_size(self):
        layout = MemoryLayout("X", (2, 2), (1, 1), 3)
        assert distribution_switch_size(layout) == 12

    def test_empty_data_nodes(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 2, 2)
        layout = analyze_banks(df, "X", [])
        assert layout.n_banks == 1
