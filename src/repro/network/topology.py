"""Joint optimization of the dissemination topology (paper future work).

The paper assumes the broker tree ``T`` is given and names "drop[ping]
the assumption that a broker tree is given in advance, and jointly
optimiz[ing] subscriber assignment, broker placement, as well as the
dissemination network topology" as future work (Section VIII).  This
module provides a pragmatic version of that: local search over tree
topologies, scoring each candidate by actually solving the subscriber
assignment on it with a fast algorithm (Gr\\* by default).

Moves considered from the current tree:

* **reattach** — detach a broker (with its subtree) from its parent and
  attach it under another node, subject to the out-degree bound;
* **promote** — move a leaf one level up (a special reattach).

The search is plain first-improvement hill climbing with a move budget;
it is deliberately simple — the point is the *joint* evaluation loop
(topology move -> re-solve assignment -> compare total cost), which is
exactly what the future-work sentence calls for.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..core.problem import SAParameters, SAProblem, SASolution
from .tree import BrokerTree

__all__ = ["TopologySearchResult", "optimize_topology", "reattach"]


def reattach(tree: BrokerTree, node: int, new_parent: int) -> BrokerTree | None:
    """A copy of the tree with ``node``'s subtree attached under ``new_parent``.

    Returns ``None`` for illegal moves: moving the publisher, attaching a
    node under itself or one of its descendants, or a no-op.
    """
    if node == 0 or new_parent == node:
        return None
    if int(tree.parents[node]) == new_parent:
        return None
    # new_parent must not live inside node's subtree.
    probe = new_parent
    while probe != -1:
        if probe == node:
            return None
        probe = int(tree.parents[probe])
    parents = tree.parents.copy()
    parents[node] = new_parent
    return BrokerTree(tree.positions, parents)


@dataclass
class TopologySearchResult:
    """Outcome of the joint topology/assignment search."""

    tree: BrokerTree
    solution: SASolution
    objective: float
    initial_objective: float
    moves_tried: int
    moves_accepted: int
    runtime_seconds: float
    history: list[float]

    @property
    def improvement(self) -> float:
        """Relative objective reduction versus the initial tree."""
        if self.initial_objective == 0:
            return 0.0
        return 1.0 - self.objective / self.initial_objective


def _default_objective(solution: SASolution) -> float:
    """Total bandwidth, with an infeasibility penalty.

    Constraint violations dominate any bandwidth difference, so the
    search never trades feasibility for bandwidth.
    """
    from ..metrics.bandwidth import total_bandwidth
    from ..verify import verify_solution
    report = verify_solution(solution.problem, solution)
    penalty = 0.0 if report.ok else 1e18 * (1 + report.lbf)
    return total_bandwidth(solution.filters) + penalty


def optimize_topology(initial_tree: BrokerTree,
                      subscriber_points: np.ndarray,
                      subscriptions,
                      params: SAParameters,
                      solver: Callable[[SAProblem], SASolution],
                      *,
                      max_out_degree: int = 8,
                      move_budget: int = 40,
                      seed: int = 0,
                      objective: Callable[[SASolution], float] | None = None,
                      ) -> TopologySearchResult:
    """Hill-climb tree topologies, re-solving the assignment per candidate.

    Parameters
    ----------
    solver:
        Builds a solution for a candidate problem; a fast algorithm
        (e.g. ``offline_greedy``) keeps the search affordable, with a
        final SLP pass on the winning topology left to the caller.
    move_budget:
        Number of candidate moves to evaluate (each costs one solve).
    """
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    score = objective or _default_objective

    def solve(tree: BrokerTree) -> tuple[SASolution, float]:
        problem = SAProblem(tree, subscriber_points, subscriptions, params)
        solution = solver(problem)
        return solution, score(solution)

    current_tree = initial_tree
    current_solution, current_objective = solve(current_tree)
    initial_objective = current_objective
    history = [current_objective]

    tried = 0
    accepted = 0
    while tried < move_budget:
        tried += 1
        num_nodes = current_tree.num_nodes
        node = int(rng.integers(1, num_nodes))
        new_parent = int(rng.integers(0, num_nodes))
        if len(current_tree.children(new_parent)) >= max_out_degree:
            continue
        candidate_tree = reattach(current_tree, node, new_parent)
        if candidate_tree is None:
            continue
        try:
            candidate_solution, candidate_objective = solve(candidate_tree)
        except ValueError:
            continue  # degenerate candidate (e.g. no leaves)
        if candidate_objective < current_objective:
            current_tree = candidate_tree
            current_solution = candidate_solution
            current_objective = candidate_objective
            accepted += 1
        history.append(current_objective)

    return TopologySearchResult(
        tree=current_tree,
        solution=current_solution,
        objective=current_objective,
        initial_objective=initial_objective,
        moves_tried=tried,
        moves_accepted=accepted,
        runtime_seconds=time.perf_counter() - started,
        history=history,
    )
