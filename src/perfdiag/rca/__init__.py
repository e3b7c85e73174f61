"""Causal-graph construction and root-cause localization."""

from .graph import CausalGraph, pc_build
from .localize import (
    INDICATOR,
    RootCauseRanking,
    ac_at_k,
    avg_at_k,
    localize,
    random_walk,
)

__all__ = [
    "CausalGraph",
    "INDICATOR",
    "RootCauseRanking",
    "ac_at_k",
    "avg_at_k",
    "localize",
    "pc_build",
    "random_walk",
]
