"""repro — Subscriber Assignment for Wide-Area Content-Based Publish/Subscribe.

A from-scratch reproduction of Yu, Agarwal, Yang (ICDE 2011): the SLP
algorithm (LP relaxation + randomized rounding + coreset sampling +
max-flow), the greedy algorithms Gr / Gr*, the single-criterion baselines,
the paper's three workload generators, and the full evaluation harness.

Quickstart::

    import numpy as np
    from repro import (GoogleGroupsConfig, generate_google_groups,
                       one_level_problem, slp1, offline_greedy,
                       evaluate_solution)

    workload = generate_google_groups(seed=7, config=GoogleGroupsConfig())
    problem = one_level_problem(workload)
    print(evaluate_solution("SLP1", slp1(problem, seed=1)))
    print(evaluate_solution("Gr*", offline_greedy(problem)))
"""

from .core import (
    ALGORITHMS,
    FilterAssignConfig,
    FilterGenConfig,
    SAParameters,
    SAProblem,
    SASolution,
    algorithm_names,
    balance_assignment,
    closest_broker,
    filters_from_assignment,
    get_algorithm,
    offline_greedy,
    online_greedy,
    slp,
    slp1,
)
from .geometry import Rect, RectSet
from .metrics import (
    SolutionReport,
    evaluate_solution,
    load_boxplot,
    load_cdf,
    total_bandwidth,
)
from .network import (
    BrokerTree,
    build_hierarchical_tree,
    build_one_level_tree,
    default_world_regions,
)
from .pubsub import (
    BruteForceMatcher,
    Filter,
    GridMatcher,
    Matcher,
    PiecewiseUniformEvents,
    RTreeMatcher,
    UniformEvents,
    best_matcher,
    simulate_dissemination,
)
from .runtime import (
    BrokerOutage,
    DisseminationEngine,
    FaultPlan,
    GreedyFailover,
    ReplayConfig,
    RuntimeConfig,
    RuntimeResult,
    Telemetry,
    apply_fault_plan,
    replay_churn,
)
from .workloads import (
    GoogleGroupsConfig,
    GridConfig,
    RssConfig,
    Workload,
    generate_clustered_shuffle,
    generate_google_groups,
    generate_grid,
    generate_rss,
    multilevel_problem,
    one_level_problem,
)

__version__ = "1.0.0"

__all__ = [
    "Rect", "RectSet",
    "BrokerTree", "build_one_level_tree", "build_hierarchical_tree",
    "default_world_regions",
    "Filter", "UniformEvents", "PiecewiseUniformEvents",
    "Matcher", "BruteForceMatcher", "GridMatcher", "RTreeMatcher",
    "best_matcher",
    "simulate_dissemination",
    "SAParameters", "SAProblem", "SASolution",
    "filters_from_assignment",
    "online_greedy", "offline_greedy", "closest_broker",
    "balance_assignment", "slp1", "slp",
    "FilterAssignConfig", "FilterGenConfig",
    "ALGORITHMS", "get_algorithm", "algorithm_names",
    "SolutionReport", "evaluate_solution", "total_bandwidth",
    "load_boxplot", "load_cdf",
    "DisseminationEngine", "RuntimeConfig", "RuntimeResult",
    "BrokerOutage", "FaultPlan", "GreedyFailover", "apply_fault_plan",
    "ReplayConfig", "replay_churn", "Telemetry",
    "Workload", "one_level_problem", "multilevel_problem",
    "GoogleGroupsConfig", "generate_google_groups",
    "RssConfig", "generate_rss", "GridConfig", "generate_grid",
    "generate_clustered_shuffle",
    "__version__",
]
