"""Design-space exploration on top of the LEGO models."""

from .explorer import (DesignPoint, DesignSpace, generate_winner,
                       pareto_front, space_from_dict, space_to_dict)
from .strategies import (OBJECTIVES, STRATEGIES, Exhaustive, PointEvaluator,
                         SearchResult, SearchStrategy, SimulatedAnnealing,
                         SuccessiveHalving, get_strategy, run_search)

__all__ = ["DesignPoint", "DesignSpace", "pareto_front",
           "generate_winner", "space_to_dict", "space_from_dict",
           "OBJECTIVES", "STRATEGIES", "SearchStrategy", "SearchResult",
           "PointEvaluator", "Exhaustive", "SimulatedAnnealing",
           "SuccessiveHalving", "get_strategy", "run_search"]
