"""Tests for the relation-based interconnection analysis (paper §IV-A).

The key correctness property, checked exhaustively and by hypothesis, is
the *semantic* one: a reuse solution (ds, dt) must mean that FU ``s + ds``
at local timestamp ``t + dt`` reads exactly the same tensor element as FU
``s`` at ``t``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.dataflow import Dataflow
from repro.core.interconnect import (ReuseKind, _delay_lattice,
                                     _minimize_scalar_delay, build_reuse_edges,
                                     find_reuse_solutions)
from repro.service.spec import DesignRequest
from test_golden_identity import ADG_CASES


def _check_semantics(df: Dataflow, sols):
    """Every solution must preserve the accessed data element."""
    rng = np.random.default_rng(0)
    for sol in sols:
        mdt, mds, _ = df.tensor_ts_map(sol.tensor)
        ds = np.array(sol.ds)
        dt = np.array(sol.dt)
        for _ in range(10):
            t = np.array([rng.integers(0, r) for r in df.rt])
            s = np.array([rng.integers(0, r) for r in df.rs])
            lhs = mdt @ (t + dt) + mds @ (s + ds)
            rhs = mdt @ t + mds @ s
            assert (lhs == rhs).all(), (sol, t, s)


class TestGemmFig3:
    """Fig. 3: GEMM with s = (k, j), systolic control c = (1, 1)."""

    @pytest.fixture()
    def df(self):
        return kernels.gemm_dataflow("KJ", kernels.gemm(8, 8, 8), 2, 2)

    def test_x_forward_along_j(self, df):
        sols = find_reuse_solutions(df, "X")
        direct = [s for s in sols if s.kind == ReuseKind.DIRECT]
        assert any(s.ds == (0, 1) and s.depth == 1 for s in direct), \
            "X must flow systolically along s_j with one register (Fig. 3)"
        # The reverse direction violates dt_bias >= 0 as a direct link.
        assert not any(s.ds == (0, -1) for s in direct)

    def test_y_forward_along_k(self, df):
        sols = find_reuse_solutions(df, "Y")
        assert any(s.ds == (1, 0) and s.kind == ReuseKind.DIRECT and
                   s.depth == 1 for s in sols)

    def test_w_is_stationary(self, df):
        sols = find_reuse_solutions(df, "W")
        kinds = {s.kind for s in sols}
        assert kinds == {ReuseKind.STATIONARY}, \
            "W depends on both spatial dims: only temporal reuse remains"

    def test_semantics(self, df):
        for tensor in ("X", "W", "Y"):
            _check_semantics(df, find_reuse_solutions(df, tensor))


class TestConvFig4:
    """Fig. 4: Conv2D with s = (oh, ow)... the paper uses (ow, oh); we use
    the OHOW helper with s = (oh, ow) and broadcast control c = (0, 0)."""

    @pytest.fixture()
    def df(self):
        return kernels.conv2d_dataflow("OHOW", kernels.conv2d(1, 4, 4, 8, 8, 3, 3),
                                       2, 2)

    def test_w_broadcast(self, df):
        sols = find_reuse_solutions(df, "W")
        direct = [s for s in sols if s.kind == ReuseKind.DIRECT]
        # W is independent of both spatial dims -> broadcast wires (depth 0)
        # in every direction.
        assert any(s.ds == (0, 1) and s.depth == 0 for s in direct)
        assert any(s.ds == (1, 0) and s.depth == 0 for s in direct)

    def test_x_neighbor_delay(self, df):
        sols = find_reuse_solutions(df, "X")
        delay = [s for s in sols if s.kind == ReuseKind.DELAY]
        # Fig. 4: X is shared with neighbours via delay FIFOs; the kh/kw
        # loops compensate the spatial shift.
        assert any(s.ds == (0, -1) and s.depth == 1 for s in delay)
        assert any(s.ds == (-1, 0) for s in delay)

    def test_y_no_spatial_reuse(self, df):
        sols = find_reuse_solutions(df, "Y")
        assert all(s.kind == ReuseKind.STATIONARY for s in sols)

    def test_semantics(self, df):
        for tensor in ("X", "W", "Y"):
            _check_semantics(df, find_reuse_solutions(df, tensor))


class TestGeneralProperties:
    @pytest.mark.parametrize("kind,p", [("IJ", 4), ("IK", 2), ("KJ", 4)])
    def test_gemm_dataflows_semantics(self, kind, p):
        df = kernels.gemm_dataflow(kind, kernels.gemm(8, 8, 8), p, p)
        for tensor in ("X", "W", "Y"):
            _check_semantics(df, find_reuse_solutions(df, tensor))

    @pytest.mark.parametrize("kind", ["OHOW", "ICOC", "KHOH", "OCOH"])
    def test_conv_dataflows_semantics(self, kind):
        df = kernels.conv2d_dataflow(kind, kernels.conv2d(1, 4, 4, 8, 8, 3, 3),
                                     2, 2)
        for tensor in ("X", "W", "Y"):
            _check_semantics(df, find_reuse_solutions(df, tensor))

    def test_mttkrp_semantics(self):
        df = kernels.mttkrp_dataflow("IJ", kernels.mttkrp(8, 8, 4, 4), 2, 2)
        for tensor in ("A", "B", "C", "Y"):
            _check_semantics(df, find_reuse_solutions(df, tensor))

    def test_depth_nonnegative_and_delay_positive(self):
        df = kernels.conv2d_dataflow("OHOW", kernels.conv2d(1, 4, 4, 8, 8, 3, 3),
                                     4, 4)
        for tensor in ("X", "W", "Y"):
            for sol in find_reuse_solutions(df, tensor):
                assert sol.depth >= 0
                if sol.kind == ReuseKind.DELAY:
                    assert sol.depth >= 1

    @given(st.sampled_from(["IJ", "IK", "KJ"]),
           st.integers(min_value=2, max_value=4),
           st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_gemm_property(self, kind, p, systolic):
        df = kernels.gemm_dataflow(kind, kernels.gemm(8, 8, 8), p, p,
                                   systolic=systolic)
        for tensor in ("X", "W", "Y"):
            sols = find_reuse_solutions(df, tensor)
            _check_semantics(df, sols)
            for sol in sols:
                if sol.kind == ReuseKind.DIRECT:
                    assert df.delta_t_bias(sol.ds) >= 0


def _edges(df, sols):
    table = build_reuse_edges(df, sols)
    return [table.edge(k) for k in range(len(table.sol))]


class TestReuseEdges:
    def test_edge_instantiation(self):
        df = kernels.gemm_dataflow("KJ", kernels.gemm(8, 8, 8), 2, 2)
        sols = find_reuse_solutions(df, "X")
        edges = _edges(df, sols)
        # direct (0,1) at s_j = 0 only: 2 FUs; delay (0,-1) at s_j = 1: 2 FUs
        pairs = {(e.src, e.dst) for e in edges}
        assert ((0, 0), (0, 1)) in pairs
        for e in edges:
            assert all(0 <= c < r for c, r in zip(e.dst, df.rs))

    def test_delay_edges_cost_more_than_direct_at_equal_depth(self):
        df = kernels.conv2d_dataflow("OHOW", kernels.conv2d(1, 4, 4, 8, 8, 3, 3),
                                     2, 2)
        x_edges = _edges(df, find_reuse_solutions(df, "X"))
        w_edges = _edges(df, find_reuse_solutions(df, "W"))
        assert min(e.solution.cost for e in x_edges) > \
            min(e.solution.cost for e in w_edges)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (4, 4), (2, 3, 2)])
    def test_table_is_every_solution_at_every_fu(self, shape):
        """Solution-major, FU-minor, in-bounds pairs only: the order the
        arborescence's tie-breaking depends on."""
        wl = kernels.gemm(8, 8, 8)
        df = Dataflow.build(wl, spatial=list(zip("ijk", shape)),
                            control=(1,) * len(shape))
        sols = [s for t in ("X", "W", "Y")
                for s in find_reuse_solutions(df, t, max_dist=2)]
        expected = []
        for sol in sols:
            if not sol.is_interconnect():
                continue
            for src in df.fu_coords():
                dst = tuple(c + d for c, d in zip(src, sol.ds))
                if all(0 <= x < r for x, r in zip(dst, df.rs)):
                    expected.append((sol.tensor, src, dst, sol))
        assert [(e.tensor, e.src, e.dst, e.solution)
                for e in _edges(df, sols)] == expected


# ---------------------------------------------------------------------------
# the reuse-delay enumerator against HiGHS and against brute force
# ---------------------------------------------------------------------------

def _milp_delay(mdt, rhs, strides, rt, dt_bias, min_depth=1):
    """The integer program the enumerator replaced, as it was posed to
    HiGHS: ``dt = x0 + B z`` with ``z >= 0`` (``milp``'s default bounds),
    returning ``(objective, dt)`` or ``None``."""
    from scipy.optimize import LinearConstraint, milp

    from repro.core.affine import solve_integer

    sol = solve_integer(mdt, rhs)
    if sol is None:
        return None
    x0 = np.array([int(v) for v in sol.x0], dtype=np.int64)
    w = np.array(strides, dtype=np.int64)
    hi = np.array(rt, dtype=np.int64) - 1
    if sol.basis.shape[1] == 0:
        ok = np.all(np.abs(x0) <= hi) and w @ x0 + dt_bias >= min_depth
        return (int(w @ x0), tuple(x0)) if ok else None
    bmat = np.array(sol.basis.tolist(), dtype=np.float64)
    res = milp(c=w @ bmat, integrality=np.ones(bmat.shape[1]),
               constraints=[
                   LinearConstraint(bmat, -hi - x0, hi - x0),
                   LinearConstraint((w @ bmat).reshape(1, -1),
                                    min_depth - float(w @ x0) - dt_bias,
                                    np.inf)])
    if not res.success:
        return None
    dt = x0 + np.array(sol.basis.tolist(), dtype=np.int64) @ np.rint(
        res.x).astype(np.int64)
    return int(w @ dt), tuple(int(v) for v in dt)


def _box_points(rt):
    axes = [np.arange(-(r - 1), r) for r in rt]
    return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(rt))


@st.composite
def _delay_problems(draw):
    """A small data map ``M_D M_T``, a box ``rt``, and a right-hand side
    that is solvable half of the time (``M_D M_T`` times a box point)."""
    n_t = draw(st.integers(1, 4))
    rank = draw(st.integers(1, 3))
    entry = st.sampled_from([0, 0, 0, 1, 1, 2, 3, -1])
    mdt = np.array(draw(st.lists(st.lists(entry, min_size=n_t, max_size=n_t),
                                 min_size=rank, max_size=rank)),
                   dtype=np.int64)
    rt = tuple(draw(st.lists(st.integers(1, 5), min_size=n_t,
                             max_size=n_t)))
    if draw(st.booleans()):
        point = [draw(st.integers(-(r - 1), r - 1)) for r in rt]
        rhs = mdt @ np.array(point, dtype=np.int64)
    else:
        rhs = np.array(draw(st.lists(st.integers(-4, 4), min_size=rank,
                                     max_size=rank)), dtype=np.int64)
    strides = tuple(int(np.prod(rt[i + 1:])) for i in range(n_t))
    return mdt, rhs, rt, strides, draw(st.integers(-3, 2))


class TestDelayEnumerator:
    @given(_delay_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_highs(self, problem):
        """Equal objective always; equal ``dt`` whenever the optimum is
        unique (HiGHS may return any optimal vertex of a tie)."""
        mdt, rhs, rt, strides, dt_bias = problem
        ours = _minimize_scalar_delay(_delay_lattice(mdt), [rhs], strides,
                                      rt, [dt_bias])[0]
        theirs = _milp_delay(mdt, rhs, strides, rt, dt_bias)
        assert (ours is None) == (theirs is None)
        if ours is None:
            return
        dt, scalar = ours
        assert scalar == theirs[0]
        assert (mdt @ dt == rhs).all() and (np.abs(dt) < np.array(rt)).all()
        assert scalar + dt_bias >= 1

    @given(_delay_problems())
    @settings(max_examples=300, deadline=None)
    def test_free_search_is_brute_force(self, problem):
        """Without the ``z >= 0`` cone the enumerator is the exact optimum
        over the whole ``dt`` box, with the stated tie rule: least scalar
        delay, then the lexicographically least ``dt``."""
        mdt, rhs, rt, strides, dt_bias = problem
        ours = _minimize_scalar_delay(_delay_lattice(mdt), [rhs], strides,
                                      rt, [dt_bias], cone=False)[0]
        points = _box_points(rt)
        scalar = points @ np.array(strides)
        ok = (points @ mdt.T == rhs).all(axis=1) & (scalar + dt_bias >= 1)
        if not ok.any():
            assert ours is None
            return
        best = min((int(s), tuple(p)) for s, p in zip(scalar[ok],
                                                      points[ok].tolist()))
        assert ours is not None
        assert (ours[1], tuple(ours[0].tolist())) == best

    @given(_delay_problems())
    @settings(max_examples=200, deadline=None)
    def test_stationary_is_brute_force(self, problem):
        """Stationary reuse is the free search with ``rhs = 0``: the least
        positive delay, which single nullspace basis vectors do not
        always reach (conv2d OHOW on a 2x2 array)."""
        mdt, _rhs, rt, strides, _bias = problem
        ours = _minimize_scalar_delay(_delay_lattice(mdt), [[0] * len(mdt)],
                                      strides, rt, [0], cone=False)[0]
        points = _box_points(rt)
        scalar = points @ np.array(strides)
        ok = (points @ mdt.T == 0).all(axis=1) & (scalar >= 1)
        if not ok.any():
            assert ours is None
        else:
            assert ours is not None and ours[1] == scalar[ok].min()

    @pytest.mark.parametrize("label", list(ADG_CASES))
    def test_suite_optima_are_highs_answers(self, label):
        """On every benchmark-scale design the enumerator returns what
        HiGHS returned, ``dt`` included."""
        for df in DesignRequest(**ADG_CASES[label]).build_dataflows():
            for acc in df.workload.tensors:
                mdt, mds, _b = df.tensor_ts_map(acc.name)
                for sol in find_reuse_solutions(df, acc.name):
                    if sol.kind == ReuseKind.STATIONARY or not any(sol.dt):
                        continue
                    dt_bias = df.delta_t_bias(sol.ds)
                    assert _milp_delay(mdt, -(mds @ np.array(sol.ds)),
                                       df.strides, df.rt, dt_bias) == \
                        (sol.scalar_dt, sol.dt)
