"""The default emitter family: the existing structural-Verilog path
(:mod:`repro.backend.verilog`) wrapped in the :class:`BackendFamily`
protocol.  Emission behaviour is unchanged — this module only gives the
RTL path a name the registry, cache, and serving layer can dispatch on.
"""

from __future__ import annotations

from ..backend import BackendOptions

__all__ = ["VerilogFamily"]


class VerilogFamily:
    """Structural RTL straight from the optimized DAG (paper §V)."""

    name = "verilog"
    description = ("flat structural Verilog: one module, per-primitive "
                   "blocks, delay-matched pipeline chains, programmable "
                   "FIFO shift registers")
    suffix = ".v"

    def artifact_names(self, module_name: str) -> list[str]:
        return [f"{module_name}.v"]

    def validate(self, options: BackendOptions) -> None:
        if not isinstance(options, BackendOptions):
            raise ValueError(f"verilog backend expects BackendOptions, "
                             f"got {type(options).__name__}")

    def emit(self, design, module_name: str = "lego_top",
             context=None) -> dict[str, str]:
        from ..backend.verilog import emit_verilog

        return {f"{module_name}.v": emit_verilog(design,
                                                 module_name=module_name)}
