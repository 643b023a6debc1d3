"""SLP1 — the one-level Subscriber-assignment-by-Linear-Programming
algorithm (paper Section IV).

Three steps, mirroring Figure 1 of the paper:

1. **Preliminary filter assignment** (:mod:`.sampling`): LP relaxation +
   randomized rounding over a coreset of subscriptions and a generated
   candidate-filter set, iterated with reweighted sampling.
2. **Subscription assignment** (:mod:`.assign_flow`): max-flow load
   balancing over coverage edges, escalating the lbf only as needed.
3. **Filter adjustment** (:mod:`.adjust`): tighten filters to at most
   ``alpha`` MEB clusters of the actually-assigned subscriptions.

With ``aggregation`` set, step 1-2 run on super-subscriptions
(:mod:`.aggregate`) and expand back to exact per-subscriber
assignments — the scaling mode for ``m ~ 10^5``.

The by-product ``fractional_bandwidth`` — the optimal LP fractional
objective — is the paper's yardstick lower bound (Section IV-D).
"""

from __future__ import annotations

import time

import numpy as np

from ...perf.profiler import span
from ..problem import SAProblem, SASolution
from .adjust import adjust_filters
from .aggregate import AggregationConfig, distribute_aggregated
from .sampling import (
    FilterAssignConfig,
    FilterAssignResult,
    assignment_outcome,
    filter_assign,
)
from .view import view_from_problem

__all__ = ["slp1"]


def slp1(problem: SAProblem, *, seed: int = 0,
         config: FilterAssignConfig | None = None,
         aggregation: AggregationConfig | None = None) -> SASolution:
    """Run SLP1 on a (one-level) SA problem.

    Also usable on a multi-level tree by treating every leaf as directly
    assignable (path latencies through the real tree are respected), but
    :func:`repro.core.slp.multilevel.slp` is the intended multi-level
    driver.

    ``aggregation`` enables subscription aggregation (see
    :mod:`.aggregate`); ``None`` keeps the exact unaggregated pipeline,
    and so does an identity config (``max_group_size <= 1`` or a view
    below ``min_subscribers``) — bit-for-bit.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    view = view_from_problem(problem)

    if aggregation is not None:
        dist = distribute_aggregated(view, rng, config, aggregation)
        target_of = dist.target_of
        fractional = dist.fractional_objective
        filter_assign_info = dist.preliminary.info
        assignment_info = dist.outcome.info
        achieved_beta = dist.outcome.achieved_beta
        flow_feasible = dist.outcome.feasible
        aggregation_info = dist.info
    else:
        preliminary: FilterAssignResult = filter_assign(view, rng, config)
        outcome = assignment_outcome(view, preliminary)
        target_of = outcome.target_of
        fractional = preliminary.fractional_objective
        filter_assign_info = preliminary.info
        assignment_info = outcome.info
        achieved_beta = outcome.achieved_beta
        flow_feasible = outcome.feasible
        aggregation_info = None

    assignment = problem.tree.leaves[target_of]
    with span("adjust"):
        filters = adjust_filters(problem, assignment, rng)

    info = {
        "algorithm": "SLP1",
        "runtime_seconds": time.perf_counter() - started,
        "achieved_beta": achieved_beta,
        "flow_feasible": flow_feasible,
        "filter_assign": filter_assign_info,
        "assignment": assignment_info,
    }
    if aggregation_info is not None:
        info["aggregation"] = aggregation_info
    return SASolution(
        problem=problem,
        assignment=assignment,
        filters=filters,
        fractional_bandwidth=fractional,
        info=info,
    )
