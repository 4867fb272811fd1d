"""Mapping search: dataflow and tiling selection per layer."""

from .search import Mapping, choose_mapping, map_model

__all__ = ["Mapping", "choose_mapping", "map_model"]
