"""Design-space exploration on top of the LEGO models."""

from .checkpoint import (CHECKPOINT_FORMAT, SearchCheckpoint,
                         run_checkpointed, space_from_dict, space_to_dict)
from .explorer import DesignPoint, DesignSpace, generate_winner, pareto_front
from .strategies import (OBJECTIVES, STRATEGIES, Exhaustive, PointEvaluator,
                         SearchPaused, SearchResult, SearchStrategy,
                         SimulatedAnnealing, SuccessiveHalving, get_strategy,
                         run_search)

__all__ = ["DesignPoint", "DesignSpace", "pareto_front",
           "generate_winner",
           "OBJECTIVES", "STRATEGIES", "SearchStrategy", "SearchResult",
           "PointEvaluator", "Exhaustive", "SimulatedAnnealing",
           "SuccessiveHalving", "get_strategy", "run_search",
           "SearchPaused", "SearchCheckpoint", "run_checkpointed",
           "space_to_dict", "space_from_dict", "CHECKPOINT_FORMAT"]
