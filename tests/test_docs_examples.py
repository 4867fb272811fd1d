"""The documentation cannot rot: run the docstring doctests of the
``dse``/``service`` packages and execute every ``python`` code fence in
README.md and docs/*.md against the live library.

CI runs the same doctests standalone via
``pytest --doctest-modules src/repro/dse src/repro/service`` and
``pytest --doctest-glob='*.md' README.md docs``; this module keeps them
in the tier-1 suite as well.
"""

import doctest
import importlib
import pathlib
import pkgutil
import re

import pytest

import repro.dse
import repro.service

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def _package_modules(*packages):
    names = []
    for pkg in packages:
        names.append(pkg.__name__)
        for info in pkgutil.iter_modules(pkg.__path__,
                                         prefix=pkg.__name__ + "."):
            names.append(info.name)
    return names


MODULES = _package_modules(repro.dse, repro.service)


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, optionflags=doctest.ELLIPSIS,
                              verbose=False)
    assert results.failed == 0, \
        f"{module_name}: {results.failed} doctest failure(s)"


def test_doctest_coverage_exists():
    """At least the strategy/explorer modules must carry doctests, so
    the doctest jobs are actually exercising something."""
    attempted = sum(
        doctest.testmod(importlib.import_module(m)).attempted
        for m in MODULES)
    assert attempted >= 5


@pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
def test_markdown_doctests(path):
    """Any ``>>>`` examples inside the markdown files must pass (the
    same thing CI's ``--doctest-glob='*.md'`` run checks)."""
    results = doctest.testfile(str(path), module_relative=False,
                               optionflags=doctest.ELLIPSIS)
    assert results.failed == 0


FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_fences():
    cases = []
    for path in DOC_FILES:
        for i, code in enumerate(FENCE.findall(path.read_text())):
            cases.append(pytest.param(code, id=f"{path.name}-{i}"))
    return cases


def test_readme_has_python_examples():
    assert any("README" in str(p.id) for p in _python_fences()) or \
        FENCE.findall((ROOT / "README.md").read_text())


@pytest.mark.parametrize("code", _python_fences())
def test_python_fences_execute(code, tmp_path, monkeypatch, capsys):
    """Every ```python fence in README/docs runs against the library
    exactly as written (a default ``DesignCache()`` lands in a
    throwaway directory)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    exec(compile(code, "<doc-fence>", "exec"), {"__name__": "__docs__"})
