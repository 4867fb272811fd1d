"""The default emitter family: the structural-Verilog path
(:mod:`repro.backend.verilog`) under the name ``verilog`` of
:data:`repro.options.BACKENDS`.  Emission behaviour is unchanged — this
module only gives the RTL path a name the cache and serving layer can
dispatch on.
"""

from __future__ import annotations

__all__ = ["VerilogFamily"]


class VerilogFamily:
    """Structural RTL straight from the optimized DAG (paper §V)."""

    def emit(self, design, module_name: str = "lego_top",
             context=None) -> dict[str, str]:
        from ..backend.verilog import emit_verilog

        return {f"{module_name}.v": emit_verilog(design,
                                                 module_name=module_name)}
