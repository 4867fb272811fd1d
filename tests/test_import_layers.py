"""Import layers: a process loads what it runs, and nothing else.

* the **client tier** — ``import repro``, ``repro.cli`` and its parser,
  ``repro.service.client``, ``repro.obs`` — is stdlib-only: no numpy, no
  scipy, no generator package; no end of the serving tier loads
  ``http.client``;
* the **serving tier** — ``repro.service.spec``/``server``/``router`` —
  is stdlib-only too: the request vocabulary is ``repro/options.py``, and
  a server loads the generator in its pool workers, never in itself;
* the **generator tier** — the front end, the perf model and the DSE —
  adds numpy but not the solver;
* the **solver** (``repro/solvers.py``, the one module that imports
  scipy) loads at the first delay-matching solve, or in ``BatchEngine``
  right before it forks a worker pool that has a design to schedule (a
  batch whose designs are all in the phase tier only emits) — and a
  missing scipy fails that request with a message, not the process.
  The front end never loads it.

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
TESTS = ROOT / "tests"

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
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(SRC.parent), str(TESTS)]))
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

EVERY_FRONT_END = """
import test_golden_identity as g
from repro.core.frontend import build_adg
from repro.service.spec import DesignRequest
requests = [DesignRequest(array=(4, 4), **kw) for kw in g.KERNELS.values()]
requests += [DesignRequest(**kw) for kw in g.ADG_CASES.values()]
for request in requests:
    build_adg(request.build_dataflows(), request.frontend)
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

    def test_client_writes_its_own_http(self):
        """Every end frames HTTP with ``repro.service.wire``: importing
        one loads no ``http.client`` nor, through it, ``email`` (and the
        client no ``ssl``: ~37 ms at every ``repro ... --url`` start;
        asyncio loads ``ssl`` for the other two)."""
        for end, unloaded in (("client", ("http.client", "ssl", "email")),
                              ("router", ("http.client", "email")),
                              ("server", ("http.client", "email"))):
            modules = run_child(f"import repro.service.{end}" + REPORT)
            assert not loaded(modules, *unloaded), end

    @pytest.mark.parametrize("entry", [
        "import repro.service.spec",
        "import repro.service.server",
        "import repro.service.router",
    ], ids=["service.spec", "service.server", "service.router"])
    def test_serving_tier_is_stdlib_only(self, entry):
        modules = run_child(entry + REPORT)
        assert not loaded(modules, *THIRD_PARTY, *GENERATOR, "repro.solvers")

    @pytest.mark.parametrize("entry", [
        TWO_POINT_SEARCH,
        "from repro import kernels, build_adg, generate, run_backend",
    ], ids=["dse-two-point-search", "readme-quickstart-names"])
    def test_generator_tier_does_not_load_the_solver(self, entry):
        modules = run_child(entry + REPORT)
        assert "numpy" in modules
        assert not loaded(modules, *SOLVER)

    def test_server_does_not_load_the_dse(self):
        """``repro serve`` loads the search and the perf model at its
        first ``/explore``, not at boot."""
        modules = run_child("import repro.service.server" + REPORT)
        assert not loaded(modules, "repro.dse", "repro.sim.perf_model")

    def test_front_end_does_not_load_the_solver(self):
        """``build_adg`` on every golden kernel, at 4x4 and at benchmark
        scale, solves its reuse delays without scipy."""
        modules = run_child(EVERY_FRONT_END + REPORT)
        assert "repro.core.frontend" in modules
        assert not loaded(modules, *SOLVER)

    def test_first_solve_loads_the_solver(self):
        modules = run_child(ONE_COLD_REQUEST + REPORT)
        assert "repro.solvers" in modules and "scipy.optimize" in modules


class TestClientTierWithoutNumpy:
    def test_cli_and_client_against_a_live_server(self, tmp_path):
        """``--help``, ``top``, ``trace --url``, ``metrics --url``,
        ``profile --url``, ``backends`` and a ``ServiceClient`` run where
        numpy and scipy cannot be imported."""
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
                                       "--seconds", "0.2"),
                    backends=repro_main("backends"))
                out["numpy"] = "numpy" in sys.modules
                print(json.dumps(out))
            """, handle.url)
        finally:
            handle.stop()
        for command in ("help", "generate_help", "top_help", "top", "trace",
                        "metrics", "profile", "backends"):
            code, text = out[command]
            assert code == 0 and text, (command, code, text)
        assert "{hls_c,verilog}" in out["generate_help"][1]
        assert "artifacts : <module>.c, <module>_tb.c" in out["backends"][1]
        assert out["health"] is True and out["generate"] is True
        assert "schedule" in out["trace"][1]  # the generate's spans
        assert out["numpy"] is False


TWO_COLD_POOLED = """
from repro.service.cache import DesignCache
from repro.service.engine import BatchEngine
from repro.service.spec import DesignRequest
module = sys.argv[2] if len(sys.argv) > 2 else "lego_top"
requests = [DesignRequest(kernel="gemm", dataflows=(df,), array=(2, 2),
                          module=module) for df in ("KJ", "IJ")]
cache = DesignCache(root=sys.argv[1]) if len(sys.argv) > 1 else None
results = BatchEngine(cache=cache).generate_many(requests, workers=2)
import json
print(json.dumps({"ok": [r.ok for r in results],
                  "errors": [r.error for r in results],
                  "from_cache": [r.from_cache for r in results],
                  "generator_loaded": [m in sys.modules for m in (
                      "repro.core.frontend", "repro.backends")],
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

    def test_not_loaded_when_every_design_is_in_the_phase_tier(
            self, tmp_path):
        """A restage (new module name, every scheduled design already
        in the phase tier) is cold but only emits: the pool forks
        without the solver (~0.7 s and ~45 MB spared)."""
        root = str(tmp_path / "cache")
        assert run_child(TWO_COLD_POOLED, root)["scipy_loaded"]
        restage = run_child(TWO_COLD_POOLED, root, "restaged_top")
        assert restage["ok"] == [True, True]
        assert restage["from_cache"] == [False, False]
        assert not restage["solver_loaded"] and not restage["scipy_loaded"]


class TestForkPoolInheritsTheGenerator:
    def test_loaded_before_the_fork_and_only_for_pooled_work(
            self, tmp_path):
        """The parent imported nothing to build its requests, and the
        workers compiled and emitted everything, yet it holds the front
        end and the emitters: it imported them to fork them, restage
        (emit only) included.  A warm batch forks no pool."""
        root = str(tmp_path / "cache")
        cold = run_child(TWO_COLD_POOLED, root)
        assert cold["from_cache"] == [False, False]
        assert cold["generator_loaded"] == [True, True]
        restage = run_child(TWO_COLD_POOLED, root, "restaged_top")
        assert restage["from_cache"] == [False, False]
        assert restage["generator_loaded"] == [True, True]
        warm = run_child(TWO_COLD_POOLED, root)
        assert warm["from_cache"] == [True, True]
        assert warm["generator_loaded"] == [False, False]


SERVER_ROUND_TRIP = """
import json
from repro.service import BatchEngine, DesignCache, ServerThread
from repro.service.client import ServiceClient

spec = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}
out = {}
with ServerThread(BatchEngine(cache=DesignCache(root=sys.argv[1]),
                              workers=2)) as url:
    with ServiceClient.from_url(url) as client:
        cold = client.generate(spec)
        warm = client.generate(spec)
        job = client.batch([dict(spec, array=[2, 3]),
                            dict(spec, backend="hls_c")])
        done = client.wait(job)
        out["generate"] = [[r["ok"], r["from_cache"]] for r in (cold, warm)]
        out["batch"] = [r["ok"] for r in done["result"]["results"]]
        out["health"] = client.health()["backends"]
        out["backends"] = [b["name"] for b in client.backends()]
out["modules"] = sorted(sys.modules)
print(json.dumps(out))
"""


class TestServerLoadsNoGenerator:
    def test_compiles_run_in_its_pool(self, tmp_path):
        """A cold ``/generate``, a warm hit, a ``/batch``, ``/healthz``
        and ``/backends``: the server answers them all and never loads
        the generator itself; its pool workers compiled the designs."""
        out = run_child(SERVER_ROUND_TRIP, str(tmp_path / "cache"))
        assert out["generate"] == [[True, False], [True, True]]
        assert out["batch"] == [True, True]
        assert out["health"] == out["backends"] == ["hls_c", "verilog"]
        assert not loaded(out["modules"], *THIRD_PARTY, *GENERATOR,
                          "repro.solvers")


class TestMissingScipy:
    SITES = ("scipy", "pyproject.toml", "delay_match")

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
