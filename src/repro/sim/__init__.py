"""Simulation and models: the cycle-accurate DAG simulator, the analytic
performance model (with its PPU latency term), the area/energy model,
and the NoC sizes behind the accelerator's ``noc`` area/power rows."""

from .dag_sim import Simulator, make_input
from .energy_model import TSMC28, FREEPDK45, TechModel, evaluate_design
from .perf_model import ArchPerf, GEMMINI_LIKE, evaluate_layer, evaluate_model

__all__ = ["Simulator", "make_input", "TSMC28", "FREEPDK45", "TechModel",
           "evaluate_design", "ArchPerf", "GEMMINI_LIKE", "evaluate_layer",
           "evaluate_model"]
