"""``repro.solvers.solve_lp`` against ``scipy.optimize.linprog``.

``solve_lp`` hands HiGHS the model ``linprog(method="highs")`` would,
with the same options, so it must return the same vertex bit for bit:
the emitted registers are HiGHS's choice among optimal vertices
(docs/architecture.md, "What the solver is handed is part of the
output").  Every LP ``delay_match`` solves on the golden kernels (both
rewiring stages and the ``rewiring=False`` path) and on one fused 8x8
design is solved again by ``linprog``; the answers, the statistics
``delay_match`` reports and the handed arrays must all agree, and
``linprog``'s duals must certify the answer optimal.  A missing or
failing HiGHS raises; nothing falls back to ``linprog``.
"""

import importlib
import sys

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog

from repro import solvers
from repro.backend import BackendOptions, delay_matching, passes, rewiring
from repro.service.spec import DesignRequest
from test_golden_identity import KERNELS
from test_golden_lp import capture_lps

CASES = {f"{kernel}/{path}": DesignRequest(array=(4, 4), options=options,
                                             **fields)
         for kernel, fields in KERNELS.items()
         for path, options in (("rewired", BackendOptions()),
                               ("rewiring=False",
                                BackendOptions(rewiring=False)))}
CASES["fused gemm-IJ+KJ@8x8"] = DesignRequest(
    kernel="gemm", dataflows=("IJ", "KJ"), array=(8, 8), systolic=False)


def certificate_holds(lp, x, y, tol=1e-7) -> bool:
    """Whether *x* and the row duals *y* (``linprog``'s marginals, ``A_ub``
    rows then ``A_eq`` rows) prove *x* optimal for *lp*: primal and dual
    feasibility and equal objectives, in O(nnz) over the handed CSC."""
    start, index, value, lower, upper = lp.handed
    col = np.repeat(np.arange(len(lp.c)), np.diff(start))
    ax = np.bincount(index, weights=value * x[col], minlength=len(upper))
    reduced = lp.c - np.bincount(col, weights=value * y[index],
                                 minlength=len(lp.c))
    n_ub = len(lp.b_ub)
    scale = 1.0 + abs(lp.c @ x)
    return bool((x >= -tol).all()
                and (ax >= lower - tol).all() and (ax <= upper + tol).all()
                and (y[:n_ub] <= tol).all() and (reduced >= -tol).all()
                and abs(lp.c @ x - upper @ y) <= tol * scale)


def _solve_with_linprog(lp):
    return linprog(lp.c, A_ub=lp.A_ub if lp.A_ub.shape[0] else None,
                   b_ub=lp.b_ub if lp.A_ub.shape[0] else None,
                   A_eq=lp.A_eq if lp.A_eq.shape[0] else None,
                   b_eq=lp.b_eq if lp.A_eq.shape[0] else None,
                   bounds=(0, None), method="highs")


def _capture_with_stats(request):
    """``capture_lps`` plus the statistics ``delay_match`` returned for
    each LP, in call order."""
    stats = []
    real = delay_matching.delay_match

    def spy(design, **kwargs):
        stats.append(real(design, **kwargs))
        return stats[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rewiring, "delay_match", spy)
        patch.setattr(passes, "delay_match", spy)
        lps = capture_lps(request)
    assert len(lps) == len(stats) >= 1
    return lps, stats


@pytest.mark.parametrize("case", list(CASES))
def test_solve_lp_returns_linprogs_vertex_and_a_certified_optimum(case):
    lps, stats = _capture_with_stats(CASES[case])
    for lp, stat in zip(lps, stats):
        res = _solve_with_linprog(lp)
        assert res.success
        assert np.array_equal(lp.x, res.x)
        assert {k: stat[k] for k in ("status", "objective", "n_vars",
                                     "n_constraints")} == {
            "status": float(res.status), "objective": float(res.fun),
            "n_vars": float(len(lp.c)),
            "n_constraints": float(len(lp.b_ub) + len(lp.b_eq))}
        y = np.concatenate((res.ineqlin.marginals, res.eqlin.marginals)
                           if len(lp.b_ub) else (res.eqlin.marginals,))
        assert certificate_holds(lp, lp.x, y)


def test_certificate_fails_when_one_el_moves():
    """The first ``A_eq`` row is an edge's ``A_v - A_u - EL = L_v`` (the
    edge rows come first); one more register on that edge is no longer
    feasible, and the certificate says so."""
    lp, = capture_lps(DesignRequest(kernel="gemm", dataflows=("KJ",),
                                    array=(4, 4),
                                    options=BackendOptions(rewiring=False)))
    res = _solve_with_linprog(lp)
    y = np.concatenate((res.ineqlin.marginals, res.eqlin.marginals))
    assert certificate_holds(lp, lp.x, y)
    row = lp.A_eq.indptr[0]
    assert lp.A_eq.indptr[1] - row == 3
    assert list(lp.A_eq.data[row:row + 3]) == [1.0, -1.0, -1.0]
    moved = lp.x.copy()
    moved[lp.A_eq.indices[row + 2]] += 1      # the edge's EL
    assert not certificate_holds(lp, moved, y)


def _toy(c, start, index, value, lower, upper):
    return (np.array(c, dtype=float), np.array(start, dtype=np.int32),
            np.array(index, dtype=np.int32), np.array(value, dtype=float),
            np.array(lower, dtype=float), np.array(upper, dtype=float))


def test_optimal_toy():
    """min x0 + 2 x1  s.t.  x0 + x1 >= 1: one unit of the cheaper x0."""
    x, objective = solvers.solve_lp(*_toy([1, 2], [0, 1, 2], [0, 0],
                                          [1, 1], [1], [np.inf]))
    assert list(x) == [1.0, 0.0] and objective == 1.0


def test_array_lengths_are_checked_before_highs_reads_them():
    c, start, index, value, lower, upper = _toy([1, 2], [0, 1, 2], [0, 0],
                                                [1, 1], [1], [np.inf])
    for bad in ((c, start[:-1], index, value, lower, upper),
                (c, start, index[:1], value, lower, upper),
                (c, start, index, value, lower, upper[:0])):
        with pytest.raises(ValueError, match="lengths disagree"):
            solvers.solve_lp(*bad)


def test_infeasible_lp_raises_with_highs_status(monkeypatch):
    """x >= 1 and x <= 0: HiGHS's status comes back as a RuntimeError and
    nothing retries through linprog."""
    def no_fallback(*args, **kwargs):
        raise AssertionError("solve_lp fell back to linprog")

    monkeypatch.setattr(scipy.optimize, "linprog", no_fallback)
    with pytest.raises(RuntimeError, match="model status Infeasible"):
        solvers.solve_lp(*_toy([1], [0, 2], [0, 1], [1, 1],
                               [1, -np.inf], [np.inf, 0]))


def test_missing_highs_module_names_itself_and_the_verified_versions(
        monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy", None)
    monkeypatch.delitem(sys.modules, "repro.solvers")
    with pytest.raises(ImportError) as info:
        importlib.import_module("repro.solvers")
    message = str(info.value)
    for word in ("scipy.optimize._highspy", "scipy 1.17.1", "HiGHS 1.12.0",
                 "pyproject.toml", "delay_match"):
        assert word in message
