"""The solver dependency: the one module under ``repro`` that imports scipy.

HiGHS (through ``scipy.optimize``; the paper uses HiGHS too) solves the
three optimisation problems of the flow:

* ``repro.core.interconnect._minimize_scalar_delay`` — the nullspace ILP
  of the delay-interconnection analysis (§IV-A, Eq. 7);
* ``repro.backend.delay_matching.delay_match`` — the delay-matching LP
  (§V-A, Eq. 10/11);
* ``repro.backend.pin_reuse.solve_pin_mapping`` — the reducer pin-reuse
  0-1 ILP (§V-C, Fig. 9).

``scipy.optimize`` costs ~0.7 s and ~45 MB to import, several times the
rest of the package together, and most processes that import ``repro``
never solve anything (the CLI's client subcommands, the router, a DSE
sweep over the analytical model, a warm-cache ``generate``).  So nothing
imports this module at module scope: each solve site imports it inside
the function that solves, and ``BatchEngine`` imports it once before it
forks a worker pool so that the workers inherit it loaded
(``tests/test_import_layers.py`` holds both rules).
"""

from __future__ import annotations

try:
    from scipy.optimize import LinearConstraint, linprog, milp
    from scipy.sparse import csr_matrix
except ImportError as exc:
    # Reaches the user as one request's ``DesignResult.error`` (possibly
    # out of a pool worker), so it has to stand on its own.
    raise ImportError(
        "repro cannot solve without scipy, a declared requirement "
        "(pyproject.toml: dependencies = [\"numpy\", \"scipy\"]), and "
        f"importing it failed: {exc}.  It is needed by "
        "repro.core.interconnect._minimize_scalar_delay (reuse ILP), "
        "repro.backend.delay_matching.delay_match (delay-matching LP) "
        "and repro.backend.pin_reuse.solve_pin_mapping (pin-reuse ILP); "
        "cache hits, the client subcommands, model evaluation and DSE "
        "run without it."
    ) from exc

__all__ = ["linprog", "milp", "LinearConstraint", "csr_matrix"]
