"""LEGO: spatial accelerator generation and optimization for tensor
applications — a from-scratch Python reproduction of the HPCA 2025 paper.

Quickstart::

    from repro import kernels, build_adg, generate, run_backend
    wl = kernels.gemm(64, 64, 64)
    df = kernels.gemm_dataflow("KJ", wl, 16, 16)
    design = run_backend(generate(build_adg([df])))
    print(design.report["register_bits"])
"""

from ._lazy import lazy_exports

__version__ = "1.2.0"

# Public name -> the submodule it is imported from on first use, so that
# ``import repro.cli`` / ``repro.service.client`` / ``repro.obs`` do not
# load the generator (docs/architecture.md, "Import layers").
_EXPORTS = {
    "AffineMap": ".core", "Workload": ".core", "TensorAccess": ".core",
    "BodyOp": ".core", "Dataflow": ".core", "kernels": ".core",
    "build_adg": ".core.frontend", "FrontendConfig": ".options",
    "generate": ".backend", "run_backend": ".backend",
    "BackendOptions": ".options",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
