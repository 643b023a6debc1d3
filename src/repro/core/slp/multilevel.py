"""SLP — the multi-level algorithm (paper Section V).

SLP applies SLP1 top-down: at each internal node it distributes the
node's subscriber subset among the node's children (each child standing
for its whole subtree), then recurses into every child with the subset
routed to it.  This follows the paper's argument that broker trees track
the network topology, so local decisions at each level are effective and
far cheaper than a flat SLP1 over all leaves.

Two quantities make a child ``C`` a valid target for subscriber ``S_j``
(see DESIGN.md Section 5):

* latency — the *optimistic* full path through ``C`` must fit the budget:
  ``lat(P -> C) + min over leaves L under C [lat(C -> L) + d(L, S_j)]
  <= delta_j``; for a leaf child this is the exact path latency;
* capacity — ``kappa(C)`` is the sum of the leaf capacity fractions under
  ``C``, scaled to the sub-problem's subscriber count.

The ``gamma`` threshold (from the technical-report version) short-cuts
the recursion: a subtree whose subscriber subset is at most ``gamma``
runs one SLP1 over its leaves directly.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ...perf.profiler import span
from ..problem import SAProblem, SASolution, filters_from_assignment
from .aggregate import AggregationConfig, distribute_aggregated
from .assign_flow import _coverer_lists, repair_loads
from .sampling import FilterAssignConfig
from .view import SLPView

__all__ = ["slp"]


def _subtree_kappa(problem: SAProblem, node: int) -> float:
    rows = problem.tree.subtree_leaf_rows(node)
    return float(problem.kappas[rows].sum())


def _child_feasibility(problem: SAProblem, children: list[int],
                       members: np.ndarray) -> np.ndarray:
    """(num_children, len(members)): optimistic latency feasibility."""
    tree = problem.tree
    points = problem.subscriber_points[members]
    budgets = problem.latency_budgets[members] * (1.0 + 1e-9)
    feasible = np.zeros((len(children), len(members)), dtype=bool)
    for row, child in enumerate(children):
        optimistic = tree.down_latency[child] + tree.best_completion(child, points)
        feasible[row] = optimistic <= budgets
    return feasible


def _leaf_feasibility(problem: SAProblem, leaf_rows: np.ndarray,
                      members: np.ndarray) -> np.ndarray:
    """Exact leaf-level feasibility restricted to a subscriber subset."""
    return problem.feasible_leaf[np.ix_(leaf_rows, members)]


def _distribute(view: SLPView, rng: np.random.Generator,
                config: FilterAssignConfig | None,
                info: dict[str, Any],
                aggregation: AggregationConfig | None = None) -> np.ndarray:
    """One SLP1 core run on a view; returns the target row per subscriber."""
    dist = distribute_aggregated(view, rng, config, aggregation)
    preliminary = dist.preliminary
    outcome = dist.outcome
    if not dist.info.get("identity", True):
        info["aggregated_levels"] = info.get("aggregated_levels", 0) + 1
        info["aggregated_groups"] = info.get("aggregated_groups", 0) \
            + dist.info["groups"]
    info["lp_calls"] += preliminary.info.get("lp_calls", 0)
    info["lp_infeasible"] += preliminary.info.get("lp_infeasible", 0)
    info["slp1_invocations"] += 1
    if preliminary.fractional_objective is not None:
        info["fractional_sum"] += preliminary.fractional_objective
        info["fractional_levels"] += 1
    if preliminary.used_fallback:
        info["fallbacks"] += 1
    if not outcome.feasible:
        info["infeasible_levels"] += 1
    return dist.target_of


def _global_rebalance(problem: SAProblem, assignment: np.ndarray,
                      info: dict[str, Any]) -> np.ndarray:
    """Leaf-level load repair after the top-down recursion.

    The recursion's per-level feasibility is optimistic (a subtree looks
    usable if *some* leaf under it fits the budget), so a level can route
    more subscribers into a subtree than its leaves can balance.  This
    pass is :func:`repair_loads` over the exact leaf-level feasibility:
    it evicts the excess from overloaded leaves and re-routes it with
    augmenting paths, escalating the lbf from ``beta`` to ``beta_max``
    only as needed.
    """
    tree = problem.tree
    repaired = repair_loads(
        tree.leaf_rows(assignment),
        lambda: _coverer_lists(problem.feasible_leaf),
        problem.kappas, problem.params.beta, problem.params.beta_max)
    if repaired is None:
        return assignment  # nothing to repair
    assigned, info["rebalanced"], info["rebalance_unrouted"] = repaired
    return tree.leaves[assigned]


def slp(problem: SAProblem, *, seed: int = 0, gamma: int = 0,
        config: FilterAssignConfig | None = None,
        aggregation: AggregationConfig | None = None) -> SASolution:
    """Run multi-level SLP on an SA problem.

    ``gamma`` collapses the recursion: a node whose subscriber subset has
    at most ``gamma`` members assigns straight to its subtree's leaves
    with one SLP1 run (0 disables the shortcut except at the bottom
    level, which is always exact).

    ``aggregation`` compresses each level's view into super-subscriptions
    before its LP (see :mod:`.aggregate`); sub-views at or below the
    config's ``min_subscribers`` stay exact.
    """
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    tree = problem.tree
    m = problem.num_subscribers
    assignment = np.full(m, -1, dtype=int)
    info: dict[str, Any] = {
        "algorithm": "SLP",
        "lp_calls": 0,
        "lp_infeasible": 0,
        "slp1_invocations": 0,
        "fractional_sum": 0.0,
        "fractional_levels": 0,
        "fallbacks": 0,
        "infeasible_levels": 0,
    }

    def solve_over_leaves(node: int, members: np.ndarray) -> None:
        """Assign members directly to the leaves under ``node``."""
        leaf_rows = tree.subtree_leaf_rows(node)
        view = SLPView(
            subscriptions=problem.subscriptions.take(members),
            network_points=problem.subscriber_points[members],
            feasible=_leaf_feasibility(problem, leaf_rows, members),
            kappas_effective=problem.kappas[leaf_rows] * (m / max(len(members), 1)),
            alpha=problem.params.alpha,
            beta=problem.params.beta,
            beta_max=problem.params.beta_max,
        )
        targets = _distribute(view, rng, config, info, aggregation)
        assignment[members] = tree.leaves[leaf_rows[targets]]

    def recurse(node: int, members: np.ndarray) -> None:
        if len(members) == 0:
            return
        children = tree.children(node)
        if not children:
            assignment[members] = node  # node is itself a leaf broker
            return
        if len(children) == 1:
            recurse(children[0], members)
            return
        leaf_rows = tree.subtree_leaf_rows(node)
        all_leaf_children = all(tree.is_leaf(c) for c in children)
        if all_leaf_children or (gamma and len(members) <= gamma) \
                or len(leaf_rows) == len(children):
            solve_over_leaves(node, members)
            return

        view = SLPView(
            subscriptions=problem.subscriptions.take(members),
            network_points=problem.subscriber_points[members],
            feasible=_child_feasibility(problem, children, members),
            kappas_effective=np.array(
                [_subtree_kappa(problem, c) for c in children])
            * (m / max(len(members), 1)),
            alpha=problem.params.alpha,
            beta=problem.params.beta,
            beta_max=problem.params.beta_max,
        )
        targets = _distribute(view, rng, config, info, aggregation)
        for row, child in enumerate(children):
            recurse(child, members[targets == row])

    recurse(0, np.arange(m))
    with span("rebalance"):
        assignment = _global_rebalance(problem, assignment, info)
    with span("adjust"):
        filters = filters_from_assignment(problem, assignment, rng)

    fractional = (info["fractional_sum"]
                  if info["fractional_levels"] else None)
    info["runtime_seconds"] = time.perf_counter() - started
    return SASolution(
        problem=problem,
        assignment=assignment,
        filters=filters,
        fractional_bandwidth=fractional,
        info=info,
    )
