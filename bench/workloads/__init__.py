"""The five benchmark workloads (see ``catalog.WORKLOADS`` for why each
exists).  Each module is imported only in its own workload process."""

from __future__ import annotations

import importlib

_MODULES = {
    "cold_compile": ("cold_compile", "ColdCompile"),
    "serve_warm": ("serve", "ServeWarm"),
    "serve_routed": ("serve", "ServeRouted"),
    "batch_sweep": ("batch_sweep", "BatchSweep"),
    "dse_explore": ("dse_explore", "DseExplore"),
}


def load(name: str, ctx):
    module_name, class_name = _MODULES[name]
    module = importlib.import_module(f"workloads.{module_name}")
    return getattr(module, class_name)(ctx)
