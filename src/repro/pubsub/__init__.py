"""Pub/sub substrate: filters, event distributions, matching, simulation."""

from .events import EventDistribution, PiecewiseUniformEvents, UniformEvents
from .filters import Filter
from .matching import BruteForceMatcher, GridMatcher, Matcher, best_matcher
from .rtree import RTreeMatcher
from .routing import RoutingPlan
from .simulator import (SimulationResult, sample_event_stream,
                        simulate_dissemination)

__all__ = [
    "Filter",
    "EventDistribution",
    "UniformEvents",
    "PiecewiseUniformEvents",
    "Matcher",
    "BruteForceMatcher",
    "GridMatcher",
    "RTreeMatcher",
    "best_matcher",
    "RoutingPlan",
    "SimulationResult",
    "sample_event_stream",
    "simulate_dissemination",
]
