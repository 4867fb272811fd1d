"""Import layers: a process loads what it runs, and nothing else.

* the **client tier** — ``import repro``, ``repro.cli`` and its parser,
  ``repro.service.client``, ``repro.obs`` — is stdlib-only: no numpy, no
  scipy, no generator package;
* the **generator tier** — ``repro.service.spec``/``server``/``router``,
  the perf model and the DSE — adds numpy but not the solver;
* the **solver** (``repro/solvers.py``, the one module that imports
  scipy) loads at the first solve, or in ``BatchEngine`` right before it
  forks a worker pool — and a missing scipy fails that request with a
  message, not the process.

Everything here asserts on ``sys.modules`` in a fresh interpreter (counts,
not timings), plus an AST guard over ``src/repro`` that keeps scipy behind
``repro/solvers.py`` and ``repro.solvers`` out of every module scope, and
the contract of the two lazily resolving package ``__init__``s.
"""

import ast
import importlib
import json
import os
import pathlib
import pickle
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.service
from repro.service.cache import DesignCache
from repro.service.engine import BatchEngine
from repro.service.server import ServerThread

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
OWNER = SRC / "solvers.py"

GENERATOR = ("repro.core", "repro.backend", "repro.backends", "repro.sim")
THIRD_PARTY = ("numpy", "scipy")
SOLVER = ("scipy", "repro.solvers")

#: Child-side preamble: ``block(*names)`` makes those top-level packages
#: unimportable, the way a machine without them would.
BLOCKER = textwrap.dedent("""
    import sys

    class _Blocked:
        def __init__(self, names):
            self.names = names
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in self.names:
                raise ImportError(f"No module named {name!r} (blocked)")

    def block(*names):
        sys.meta_path.insert(0, _Blocked(names))
""")


def run_child(code: str, *argv: str) -> dict:
    """Run *code* in a fresh interpreter over ``src/``; it must print one
    JSON object as its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKER + textwrap.dedent(code), *argv],
        env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded(modules, *prefixes) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"

TWO_POINT_SEARCH = """
import repro.dse as dse
import repro.sim.perf_model
from repro.models import zoo
space = dse.DesignSpace(arrays=((8, 8),), buffer_kb=(128.0,),
                        dataflow_sets=(("MN",), ("ICOC",)))
assert space.size() == 2
found = dse.run_search([zoo.MODEL_BUILDERS["LeNet"]()], space)
assert len(found.points) == 2
"""

ONE_COLD_REQUEST = """
from repro.service.spec import DesignRequest, execute_request
result = execute_request(DesignRequest(kernel="gemm", dataflows=("KJ",),
                                       array=(2, 2)), cache=None)
assert result.ok, result.error
"""


class TestLayers:
    @pytest.mark.parametrize("entry", [
        "import repro",
        "import repro.cli; repro.cli.build_parser()",
        "import repro.service.client",
        "import repro.obs",
    ])
    def test_client_tier_is_stdlib_only(self, entry):
        modules = run_child(entry + REPORT)
        assert not loaded(modules, *THIRD_PARTY, *GENERATOR, "repro.solvers")

    @pytest.mark.parametrize("entry", [
        TWO_POINT_SEARCH,
        "import repro.service.spec",
        "import repro.service.server",
        "import repro.service.router",
        "from repro import kernels, build_adg, generate, run_backend",
    ], ids=["dse-two-point-search", "service.spec", "service.server",
            "service.router", "readme-quickstart-names"])
    def test_generator_tier_does_not_load_the_solver(self, entry):
        modules = run_child(entry + REPORT)
        assert "numpy" in modules
        assert not loaded(modules, *SOLVER)

    def test_first_solve_loads_the_solver(self):
        modules = run_child(ONE_COLD_REQUEST + REPORT)
        assert "repro.solvers" in modules and "scipy.optimize" in modules


class TestClientTierWithoutNumpy:
    def test_cli_and_client_against_a_live_server(self, tmp_path):
        """``--help``, ``top``, ``trace --url``, ``metrics --url``,
        ``profile --url`` and a ``ServiceClient`` run where numpy and
        scipy cannot be imported."""
        handle = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "cache"))).start()
        try:
            out = run_child("""
                block("numpy", "scipy")
                import contextlib, io, json, runpy

                def repro_main(*argv):
                    sys.argv = ["repro", *argv]
                    text = io.StringIO()
                    with contextlib.redirect_stdout(text):
                        try:
                            runpy.run_module("repro", run_name="__main__",
                                             alter_sys=True)
                        except SystemExit as exc:
                            code = exc.code or 0
                    return [code, text.getvalue()]

                url = sys.argv[1]
                out = {}
                from repro.service.client import ServiceClient
                with ServiceClient.from_url(url) as client:
                    out["health"] = client.health()["ok"]
                    out["generate"] = client.generate(
                        {"kernel": "gemm", "dataflows": ["KJ"],
                         "array": [2, 2]})["ok"]
                out.update(
                    help=repro_main("--help"),
                    generate_help=repro_main("generate", "--help"),
                    top_help=repro_main("top", "--help"),
                    top=repro_main("top", "--url", url, "--iterations", "1"),
                    trace=repro_main("trace", "--url", url),
                    metrics=repro_main("metrics", "--url", url),
                    profile=repro_main("profile", "--url", url,
                                       "--seconds", "0.2"))
                out["numpy"] = "numpy" in sys.modules
                print(json.dumps(out))
            """, handle.url)
        finally:
            handle.stop()
        for command in ("help", "generate_help", "top_help", "top", "trace",
                        "metrics", "profile"):
            code, text = out[command]
            assert code == 0 and text, (command, code, text)
        assert "{hls_c,verilog}" in out["generate_help"][1]
        assert out["health"] is True and out["generate"] is True
        assert "schedule" in out["trace"][1]  # the generate's spans
        assert out["numpy"] is False


TWO_COLD_POOLED = """
from repro.service.cache import DesignCache
from repro.service.engine import BatchEngine
from repro.service.spec import DesignRequest
requests = [DesignRequest(kernel="gemm", dataflows=(df,), array=(2, 2))
            for df in ("KJ", "IJ")]
cache = DesignCache(root=sys.argv[1]) if len(sys.argv) > 1 else None
results = BatchEngine(cache=cache).generate_many(requests, workers=2)
import json
print(json.dumps({"ok": [r.ok for r in results],
                  "errors": [r.error for r in results],
                  "from_cache": [r.from_cache for r in results],
                  "solver_loaded": "repro.solvers" in sys.modules,
                  "scipy_loaded": "scipy" in sys.modules}))
"""


class TestForkPoolInheritsTheSolver:
    def test_loaded_before_the_fork_and_only_for_cold_work(self, tmp_path):
        root = str(tmp_path / "cache")
        cold = run_child(TWO_COLD_POOLED, root)
        assert cold["ok"] == [True, True]
        assert cold["from_cache"] == [False, False]
        # the parent solved nothing itself (both requests ran in
        # workers), yet holds the solver: it imported it to fork it
        assert cold["solver_loaded"] and cold["scipy_loaded"]

        warm = run_child(TWO_COLD_POOLED, root)
        assert warm["ok"] == [True, True]
        assert warm["from_cache"] == [True, True]
        assert not warm["solver_loaded"] and not warm["scipy_loaded"]


class TestMissingScipy:
    SITES = ("scipy", "pyproject.toml", "_minimize_scalar_delay",
             "delay_match", "solve_pin_mapping")

    def test_fails_the_request_not_the_process(self):
        """Without scipy, ``import repro`` and everything that does not
        solve still work; a request that has to solve comes back
        ``ok=False`` with a message that says what is missing and who
        needs it — in process and out of a forked pool worker."""
        out = run_child("""
            block("scipy")
            import json
            from repro.service.spec import DesignRequest, execute_request
            from repro.sim.perf_model import GEMMINI_LIKE, evaluate_model
            from repro.models import zoo
            cycles = evaluate_model(zoo.MODEL_BUILDERS["LeNet"](),
                                    GEMMINI_LIKE).total_cycles
            result = execute_request(
                DesignRequest(kernel="gemm", dataflows=("KJ",),
                              array=(2, 2)), cache=None)
            print(json.dumps({"cycles": cycles, "ok": result.ok,
                              "error": result.error}))
        """)
        assert out["cycles"] > 0
        assert out["ok"] is False
        assert out["error"].startswith("ImportError: ")
        assert all(word in out["error"] for word in self.SITES)

        pooled = run_child('block("scipy")' + TWO_COLD_POOLED)
        assert pooled["ok"] == [False, False]
        for error in pooled["errors"]:
            assert all(word in error for word in self.SITES)


# ---------------------------------------------------------------------------
# AST guard: scipy has one owner, and nobody imports it for everybody
# ---------------------------------------------------------------------------

def _imported_names(node) -> list[str]:
    """Dotted names an import statement reads: ``from .. import solvers``
    is ``..solvers``, ``from ..solvers import milp`` is ``..solvers`` and
    ``..solvers.milp``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        sep = "" if base.endswith(".") else "."
        return [base, *(base + sep + alias.name for alias in node.names)]
    return []


def _is_solvers(name: str) -> bool:
    return name.lstrip(".").split(".")[-1] == "solvers" and (
        name.startswith(".") or name.startswith("repro"))


def solver_import_violations(source: str, owner: bool = False) -> list[str]:
    found = []

    def visit(node, in_function):
        for name in _imported_names(node):
            if name.partition(".")[0] == "scipy" and not owner:
                found.append(f"line {node.lineno}: imports {name}")
            elif _is_solvers(name) and not in_function:
                found.append(f"line {node.lineno}: module-scope import "
                             f"of {name}")
        inside = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


class TestSolverHasOneOwner:
    @pytest.mark.parametrize("snippet", [
        "import scipy",
        "from scipy.optimize import linprog",
        "import scipy.sparse as sp",
        "def f():\n    from scipy.optimize import milp",
        "from .solvers import milp",
        "from ..solvers import linprog, csr_matrix",
        "from .. import solvers",
        "from . import solvers",
        "import repro.solvers",
        "from repro.solvers import milp",
        "try:\n    from .. import solvers\nexcept ImportError:\n    pass",
        "class C:\n    from ..solvers import milp",
    ])
    def test_guard_catches(self, snippet):
        assert solver_import_violations(snippet)

    @pytest.mark.parametrize("snippet", [
        "import numpy as np",
        "def f():\n    from ..solvers import milp\n    return milp",
        "def f():\n    try:\n        from .. import solvers\n"
        "    except ImportError:\n        pass",
        "from .solver_stats import table",
        "from scipy_like import thing",
    ])
    def test_guard_allows(self, snippet):
        assert not solver_import_violations(snippet)

    def test_owner_may_import_scipy(self):
        assert not solver_import_violations(OWNER.read_text(), owner=True)
        assert solver_import_violations(OWNER.read_text())

    def test_scipy_is_imported_in_solvers_py_and_nowhere_else(self):
        offenders = {}
        for path in sorted(SRC.rglob("*.py")):
            found = solver_import_violations(path.read_text(),
                                             owner=path == OWNER)
            if found:
                offenders[str(path.relative_to(SRC))] = found
        assert not offenders, (
            "scipy is owned by repro/solvers.py, which is imported inside "
            "the function that solves (or before a fork), never at module "
            "scope:\n"
            + "\n".join(f"  {p}: {v}" for p, v in offenders.items()))


# ---------------------------------------------------------------------------
# the lazily resolving package __init__s keep their public contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("package", [repro, repro.service],
                         ids=["repro", "repro.service"])
class TestLazyPackages:
    def test_every_public_name_is_the_submodule_object(self, package):
        assert len(package.__all__) == len(set(package.__all__))
        for name in package.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(
                package.__name__ + package._EXPORTS[name])
            assert getattr(package, name) is getattr(home, name), name
            assert name in vars(package)  # cached: __getattr__ ran once

    def test_dir_and_star_import(self, package):
        assert set(package.__all__) <= set(dir(package))
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_attribute(self, package):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            package.nope
        assert not hasattr(package, "nope")


def test_lazily_resolved_names_are_the_real_objects():
    import repro.core.kernels
    import repro.service.spec

    assert repro.kernels is repro.core.kernels
    assert repro.service.DesignRequest is repro.service.spec.DesignRequest
    assert repro.service.serve.__module__ == "repro.service.server"


def test_requests_and_results_pickle_through_lazy_names():
    """The worker pool pickles these by import path."""
    request = repro.service.DesignRequest(kernel="gemm", dataflows=("KJ",),
                                          array=(2, 2))
    assert pickle.loads(pickle.dumps(request)) == request
    result = repro.service.execute_request(request)
    assert result.ok
    clone = pickle.loads(pickle.dumps(result))
    assert type(clone) is repro.service.DesignResult
    assert clone.spec_hash == result.spec_hash and clone.rtl == result.rtl
