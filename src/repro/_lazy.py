"""Lazily resolved package exports (PEP 562).

``repro`` and ``repro.service`` re-export a public surface that spans
the whole generator.  Resolving those names eagerly made ``import
repro.service.client`` (or ``repro --help``) load numpy, the front end,
the back end and both emitters; resolved on first use, a process loads
only what it names.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping


def lazy_exports(namespace: dict, table: Mapping[str, str]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose ``globals()`` is
    *namespace*: each *table* entry ``name -> ".submodule"`` behaves as
    ``from .submodule import name``, run when ``name`` is first read and
    then stored in *namespace* (so ``__getattr__`` is not asked again)."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            target = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        # fromlist makes this the ``from x import name`` statement,
        # submodule-valued names (``repro.kernels``) included
        value = getattr(__import__(package + target, fromlist=[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
