"""Core: the SA problem, greedy algorithms, baselines, and SLP."""

from .baselines import balance_assignment, closest_broker
from .greedy import offline_greedy, online_greedy
from .problem import (
    SAParameters,
    SAProblem,
    SASolution,
    filters_from_assignment,
)
from .registry import ALGORITHMS, algorithm_names, get_algorithm
from .slp import FilterAssignConfig, FilterGenConfig, slp, slp1

__all__ = [
    "SAParameters",
    "SAProblem",
    "SASolution",
    "filters_from_assignment",
    "online_greedy",
    "offline_greedy",
    "closest_broker",
    "balance_assignment",
    "slp1",
    "slp",
    "FilterAssignConfig",
    "FilterGenConfig",
    "ALGORITHMS",
    "get_algorithm",
    "algorithm_names",
]
