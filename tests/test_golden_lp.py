"""Golden identity of the delay-matching LP handed to HiGHS.

The §V-A LP's optimum is not unique on most systolic designs (see
docs/architecture.md, "What the solver is handed is part of the
output"), so the vertex HiGHS returns — and with it every emitted
register — depends on the exact problem it is given: variable numbering,
row order, in-row column order, costs and bounds.  ``golden_lp.json``
pins a sha256 of that problem per (kernel, rewiring stage), recorded at
the commit *before* the assembly was rewritten to emit CSR arrays
directly; a change to how ``delay_match`` builds its model that moves one
coefficient's position fails here, by name, and not only as a moved
``golden_identity`` digest downstream.

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

import numpy as np
import pytest

from repro import solvers
from repro.backend import generate, run_backend
from repro.core.frontend import build_adg
from repro.service.spec import DesignRequest
from test_golden_identity import KERNELS

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_lp.json")

# run_rewiring's two solves, in call order: the broadcast-virtual-cost
# LP before the MST rewiring and the plain Eq. 10/11 LP after it.
STAGES = ("stage1", "stage3")


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
            matrix = solvers.csr_matrix(matrix)
            feed(matrix.shape, np.int64)
            feed(matrix.data, np.float64)
            feed(matrix.indices, np.int64)
            feed(matrix.indptr, np.int64)
        feed(rhs, np.float64)
    return h.hexdigest()


def lp_digests(kernel: str) -> dict[str, str]:
    """Compile *kernel* at 4x4 with default options and digest each LP
    ``delay_match`` hands to ``repro.solvers.linprog``."""
    seen = []
    real = solvers.linprog

    def spy(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None,
            **kwargs):
        assert bounds == (0, None) and kwargs == {"method": "highs"}
        seen.append(_digest(c, A_eq, b_eq, A_ub, b_ub))
        return real(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                    bounds=bounds, **kwargs)

    request = DesignRequest(array=(4, 4), module="golden_top",
                            **KERNELS[kernel])
    adg = build_adg(request.build_dataflows(), request.frontend)
    design = generate(adg)
    with pytest.MonkeyPatch.context() as patch:
        # delay_match binds ``linprog`` from repro.solvers at each call
        patch.setattr(solvers, "linprog", spy)
        run_backend(design, request.options)
    assert len(seen) == len(STAGES), seen
    return dict(zip(STAGES, seen))


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_delay_match_hands_highs_the_pinned_lp(kernel):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert lp_digests(kernel) == golden[kernel]


if __name__ == "__main__":
    print(json.dumps({k: lp_digests(k) for k in KERNELS},
                     indent=1, sort_keys=True))
