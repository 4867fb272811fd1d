"""Golden identity of the delay-matching LP handed to HiGHS.

The §V-A LP's optimum is not unique on most systolic designs (see
docs/architecture.md, "What the solver is handed is part of the
output"), so the vertex HiGHS returns — and with it every emitted
register — depends on the exact problem it is given: variable numbering,
row order, costs and bounds.  ``golden_lp.json`` pins a sha256 of that
problem per (kernel, rewiring stage), recorded at the commit *before* the
assembly was rewritten to emit CSR arrays directly; a change to how
``delay_match`` builds its model that moves one coefficient's position
fails here, by name, and not only as a moved ``golden_identity`` digest
downstream.

The seam is ``repro.solvers.solve_lp``: the spy splits the rows it is
handed back into the ``A_ub`` block (no lower bound, first) and the
``A_eq`` block (lower bound = upper bound) and checks that its CSC
arrays are exactly scipy's conversion of those two CSR blocks stacked,
which is what ``linprog(method="highs")`` handed HiGHS.  The digest was
recorded over the CSR blocks with each row's columns in construction
order, which a CSC matrix does not carry; the spy reads those rows where
``delay_match`` hands them to ``_colwise`` for conversion.

The digest covers values, not containers: everything is cast to
float64/int64 first, ``-0.0`` hashes like ``0.0`` and an absent block
(``None``) like an empty one, so a dtype or container change is not a
diff.

Re-record (only when an output change is intended and explained)::

    PYTHONPATH=src python tests/test_golden_lp.py > tests/golden_lp.json
"""

import hashlib
import json
import pathlib
from typing import NamedTuple

import numpy as np
import pytest
from scipy.sparse import csc_array, csr_matrix, vstack

from repro import solvers
from repro.backend import delay_matching, generate, run_backend
from repro.core.frontend import build_adg
from repro.service.spec import DesignRequest
from test_golden_identity import KERNELS

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_lp.json")

# run_rewiring's two solves, in call order: the broadcast-virtual-cost
# LP before the MST rewiring and the plain Eq. 10/11 LP after it.
STAGES = ("stage1", "stage3")


class HandedLP(NamedTuple):
    """One LP as ``delay_match`` stated it and as ``solve_lp`` got it."""
    c: np.ndarray
    A_ub: csr_matrix
    b_ub: np.ndarray
    A_eq: csr_matrix
    b_eq: np.ndarray
    handed: tuple       # solve_lp's (a_start, a_index, a_value, lower, upper)
    x: np.ndarray       # solve_lp's answer


def capture_lps(request: DesignRequest) -> list[HandedLP]:
    """Compile *request* and return every LP ``delay_match`` hands
    ``repro.solvers.solve_lp``, in call order."""
    rows, lps = [], []
    real_colwise, real_solve = delay_matching._colwise, solvers.solve_lp

    def colwise(lengths, cols, values, n_cols):
        rows.append((lengths, cols, values))
        return real_colwise(lengths, cols, values, n_cols)

    def solve_lp(c, a_start, a_index, a_value, row_lower, row_upper):
        lengths, cols, values = rows.pop()
        n_ub = int(np.isneginf(row_lower).sum())
        assert np.isneginf(row_lower[:n_ub]).all()
        assert np.array_equal(row_lower[n_ub:], row_upper[n_ub:])
        indptr = np.concatenate(([0], np.cumsum(lengths)))

        def block(first, end):     # rows [first, end) as a CSR matrix
            lo, hi = indptr[first], indptr[end]
            return csr_matrix((values[lo:hi], cols[lo:hi],
                               indptr[first:end + 1] - lo),
                              shape=(end - first, len(c)))

        a_ub, a_eq = block(0, n_ub), block(n_ub, len(lengths))
        # what linprog(method="highs") handed HiGHS
        stacked = csc_array(vstack([m for m in (a_ub, a_eq) if m.shape[0]]))
        for got, want in zip((a_start, a_index, a_value),
                             (stacked.indptr, stacked.indices, stacked.data)):
            assert np.array_equal(got, want)
        x, objective = real_solve(c, a_start, a_index, a_value, row_lower,
                                  row_upper)
        lps.append(HandedLP(c, a_ub, row_upper[:n_ub], a_eq,
                            row_upper[n_ub:], (a_start, a_index, a_value,
                                               row_lower, row_upper), x))
        return x, objective

    design = generate(build_adg(request.build_dataflows(), request.frontend))
    with pytest.MonkeyPatch.context() as patch:
        # delay_match looks both up at each call
        patch.setattr(delay_matching, "_colwise", colwise)
        patch.setattr(solvers, "solve_lp", solve_lp)
        run_backend(design, request.options)
    assert not rows
    return lps


def _digest(c, A_eq, b_eq, A_ub, b_ub) -> str:
    h = hashlib.sha256()

    def feed(values, dtype):
        arr = np.ascontiguousarray(
            () if values is None else values, dtype=dtype).ravel() + 0
        h.update(f"{arr.size}:".encode())
        h.update(arr.tobytes())

    feed(c, np.float64)
    for matrix, rhs in ((A_eq, b_eq), (A_ub, b_ub)):
        if matrix is None:
            feed((0, len(c)), np.int64)
            for _ in range(3):
                feed(None, np.int64)
        else:
            matrix = csr_matrix(matrix)
            feed(matrix.shape, np.int64)
            feed(matrix.data, np.float64)
            feed(matrix.indices, np.int64)
            feed(matrix.indptr, np.int64)
        feed(rhs, np.float64)
    return h.hexdigest()


def lp_digests(kernel: str) -> dict[str, str]:
    """Compile *kernel* at 4x4 with default options and digest each LP
    ``delay_match`` hands to ``repro.solvers.solve_lp``."""
    request = DesignRequest(array=(4, 4), module="golden_top",
                            **KERNELS[kernel])
    lps = capture_lps(request)
    assert len(lps) == len(STAGES), lps
    return {stage: _digest(lp.c, lp.A_eq if lp.A_eq.shape[0] else None,
                           lp.b_eq, lp.A_ub if lp.A_ub.shape[0] else None,
                           lp.b_ub)
            for stage, lp in zip(STAGES, lps)}


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_delay_match_hands_highs_the_pinned_lp(kernel):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert lp_digests(kernel) == golden[kernel]


if __name__ == "__main__":
    print(json.dumps({k: lp_digests(k) for k in KERNELS},
                     indent=1, sort_keys=True))
