"""The solver dependency: the one module under ``repro`` that imports scipy.

:func:`solve_lp` solves the §V-A delay-matching LP (``delay_match``) with
the HiGHS build scipy ships (``scipy.optimize._highspy._core``, which
``linprog``'s own wrapper calls) and ``linprog(method="highs")``'s
options, so it returns ``linprog``'s vertex (``tests/test_solvers.py``)
without its input checks, sparse conversions and result bookkeeping.

Importing it loads ``scipy.optimize`` (0.35-0.45 s and ~49 MB on a 2-vCPU
x86-64 host), which most processes never need, so nothing imports it at
module scope: ``delay_match`` imports it where it solves, ``BatchEngine``
before it forks a pool with a design to schedule (docs/architecture.md).
"""

from __future__ import annotations

import numpy as np

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:
    # Reaches the user alone, as a request's ``DesignResult.error``.
    raise ImportError(
        "repro cannot solve without scipy.optimize._highspy (verified on "
        f"scipy 1.17.1, HiGHS 1.12.0): {exc}.  scipy is a declared "
        "requirement (pyproject.toml); repro.backend.delay_matching."
        "delay_match needs it for the delay-matching LP, while cache hits, "
        "the front end, the client subcommands, model evaluation and DSE "
        "run without it.") from exc

__all__ = ["solve_lp"]

# ``linprog(method="highs")``'s settings: other ones may pick another vertex.
_OPTIONS = (
    ("presolve", "on"),
    ("highs_debug_level", int(_highs.HighsDebugLevel.kHighsDebugLevelNone)),
    ("log_to_console", False),
    ("output_flag", False),
    ("simplex_strategy",
     int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)),
)


def solve_lp(c: np.ndarray, a_start: np.ndarray, a_index: np.ndarray,
             a_value: np.ndarray, row_lower: np.ndarray,
             row_upper: np.ndarray) -> tuple[np.ndarray, float]:
    """``(x, c @ x)`` minimising ``c @ x`` over ``x >= 0`` subject to
    ``row_lower <= A @ x <= row_upper``, ``A`` given as int32 CSC arrays.
    Raises ``RuntimeError`` naming HiGHS's model status unless optimal."""
    n, m, nnz = len(c), len(row_lower), len(a_value)
    if len(a_start) != n + 1 or len(row_upper) != m or len(a_index) != nnz:
        raise ValueError("solve_lp: the LP's array lengths disagree")
    highs = _highs._Highs()
    for name, value in _OPTIONS:
        if highs.setOptionValue(name, value) == _highs.HighsStatus.kError:
            raise RuntimeError(f"HiGHS refused option {name}={value!r}")
    passed = highs.passModel(      # (HiGHS reads n integrality flags)
        n, m, nnz, _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize,
        0.0, c, np.zeros(n), np.full(n, np.inf), row_lower, row_upper,
        a_start, a_index, a_value, np.zeros(n, dtype=np.int32))
    if passed != _highs.HighsStatus.kError:
        highs.run()
    status = highs.getModelStatus()     # "Not Set" if HiGHS refused the model
    if status != _highs.HighsModelStatus.kOptimal:
        raise RuntimeError("HiGHS did not solve the LP: model status "
                           f"{highs.modelStatusToString(status)}")
    return np.array(highs.getSolution().col_value), highs.getObjectiveValue()
