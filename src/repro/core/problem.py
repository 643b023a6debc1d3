"""The subscriber assignment (SA) problem and its solutions.

This module defines the problem instance handed to every algorithm in the
library, plus the solution container.  :func:`repro.verify.verify_solution`
checks a solution against every constraint.

Latency semantics (paper Section VI, "Problem Settings"): constraints are
specified by a *maximum delay* ``D``.  The delay experienced by subscriber
``S`` is ``delta / Delta - 1`` where ``delta`` is the latency of the path
publisher -> leaf -> subscriber actually used and ``Delta`` the shortest
achievable such latency; an assignment is valid iff every subscriber's
delay is at most ``D``, i.e. ``delta_j <= (1 + D) * Delta_j``.

The alternative ``last_hop`` mode (paper Section II, "Our approach can be
extended ...") bounds only the leaf-to-subscriber distance relative to the
closest broker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..geometry import RectSet, alpha_meb_cover
from ..network.tree import BrokerTree
from ..pubsub.filters import Filter

__all__ = ["SAParameters", "SAProblem", "SASolution",
           "filters_from_assignment"]

#: Relative tolerance for latency feasibility checks (floating point slack).
LATENCY_RTOL = 1e-9


@dataclass(frozen=True)
class SAParameters:
    """User-facing knobs of the SA problem (paper Section II)."""

    alpha: int = 3             #: max rectangles per broker filter
    max_delay: float = 0.3     #: D; latency budget is (1 + D) * shortest
    beta: float = 1.5          #: desired load-balance factor
    beta_max: float = 1.8      #: hard cap on the load-balance factor
    latency_mode: str = "path"  #: "path" (default) or "last_hop"

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("alpha must be at least 1")
        if self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")
        if not (0 < self.beta <= self.beta_max):
            raise ValueError("need 0 < beta <= beta_max")
        if self.latency_mode not in ("path", "last_hop"):
            raise ValueError("latency_mode must be 'path' or 'last_hop'")


class SAProblem:
    """An SA instance: tree, subscribers, subscriptions, constraints.

    All derived latency structures are computed once at construction:
    the per-leaf latency matrix, shortest achievable latencies ``Delta_j``,
    latency budgets ``delta_j``, and the leaf-feasibility matrix.
    """

    def __init__(self,
                 tree: BrokerTree,
                 subscriber_points: np.ndarray,
                 subscriptions: RectSet,
                 params: SAParameters | None = None,
                 kappas: np.ndarray | None = None,
                 latency_budgets: np.ndarray | None = None) -> None:
        points = np.ascontiguousarray(subscriber_points, dtype=float)
        if points.ndim != 2:
            raise ValueError("subscriber_points must have shape (m, d)")
        if points.shape[1] != tree.network_dim:
            raise ValueError("subscriber points must live in the tree's network space")
        if len(subscriptions) != points.shape[0]:
            raise ValueError("one subscription per subscriber required")

        self.tree = tree
        self.subscriber_points = points
        self.subscriptions = subscriptions
        self.params = params or SAParameters()

        num_leaves = tree.num_leaves
        if kappas is None:
            kappas = np.full(num_leaves, 1.0 / num_leaves)
        else:
            kappas = np.asarray(kappas, dtype=float)
            if kappas.shape != (num_leaves,):
                raise ValueError("one capacity fraction per leaf broker required")
            if np.any(kappas <= 0) or not np.isclose(kappas.sum(), 1.0):
                raise ValueError("capacity fractions must be positive and sum to 1")
        self.kappas = kappas

        # (num_leaves, m): latency of serving subscriber j via leaf row i.
        if self.params.latency_mode == "path":
            self.leaf_latency = tree.subscriber_latencies(points)
        else:
            from ..network.space import pairwise_distances
            self.leaf_latency = pairwise_distances(tree.leaf_positions(), points)

        #: Delta_j — the best achievable latency per subscriber.
        self.shortest_latency = self.leaf_latency.min(axis=0)

        if latency_budgets is not None:
            budgets = np.asarray(latency_budgets, dtype=float)
            if budgets.shape != (points.shape[0],):
                raise ValueError("one latency budget per subscriber required")
            self.latency_budgets = budgets
        else:
            self.latency_budgets = (1.0 + self.params.max_delay) * self.shortest_latency

        slack = 1.0 + LATENCY_RTOL
        #: (num_leaves, m) boolean: leaf row i may serve subscriber j.
        self.feasible_leaf = self.leaf_latency <= self.latency_budgets[None, :] * slack

    # -- convenience accessors ------------------------------------------------

    @property
    def num_subscribers(self) -> int:
        return self.subscriber_points.shape[0]

    @property
    def num_leaf_brokers(self) -> int:
        return self.tree.num_leaves

    @property
    def event_dim(self) -> int:
        return self.subscriptions.dim

    def candidate_counts(self) -> np.ndarray:
        """Per-subscriber count of latency-feasible leaves (Gr* ordering key)."""
        return self.feasible_leaf.sum(axis=0)

    def delays(self, assignment: np.ndarray) -> np.ndarray:
        """Per-subscriber delay ``delta / Delta - 1`` under ``assignment``.

        ``assignment`` maps subscribers to leaf *node ids*; unassigned
        entries (-1) get ``inf``.
        """
        assignment = np.asarray(assignment, dtype=int)
        delays = np.full(self.num_subscribers, np.inf)
        assigned = assignment >= 0
        if assigned.any():
            rows = self.tree.leaf_rows(assignment[assigned])
            used = self.leaf_latency[rows, np.flatnonzero(assigned)]
            base = self.shortest_latency[assigned]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(base > 0, used / np.where(base > 0, base, 1.0), 1.0)
            delays[assigned] = ratio - 1.0
        return delays

    def loads(self, assignment: np.ndarray) -> np.ndarray:
        """Subscribers per leaf broker (canonical leaf order)."""
        assignment = np.asarray(assignment, dtype=int)
        rows = self.tree.leaf_rows(assignment[assignment >= 0])
        return np.bincount(rows, minlength=self.num_leaf_brokers)

    def load_balance_factor(self, assignment: np.ndarray) -> float:
        """``max_i m_i / (kappa_i m)`` — the paper's lbf."""
        loads = self.loads(assignment)
        return float((loads / (self.kappas * self.num_subscribers)).max())

    def __repr__(self) -> str:
        return (f"SAProblem(m={self.num_subscribers}, "
                f"leaves={self.num_leaf_brokers}, "
                f"event_dim={self.event_dim}, params={self.params})")


@dataclass
class SASolution:
    """An assignment plus broker filters, with optional solver metadata."""

    problem: SAProblem
    assignment: np.ndarray                 #: (m,) leaf node ids, -1 = unassigned
    filters: dict[int, Filter]             #: broker node id -> filter
    fractional_bandwidth: float | None = None  #: LP lower bound (SLP only)
    info: dict[str, Any] = field(default_factory=dict)

def filters_from_assignment(problem: SAProblem, assignment: np.ndarray,
                            rng: np.random.Generator) -> dict[int, Filter]:
    """Build nested filters bottom-up from a subscriber assignment.

    Leaf filters cover their assigned subscriptions with at most ``alpha``
    MEBs (the paper's filter-adjustment heuristic); each interior filter
    covers the union of its children's rectangles the same way.  The
    result satisfies nesting and complexity by construction.
    """
    tree = problem.tree
    alpha = problem.params.alpha
    assignment = np.asarray(assignment, dtype=int)
    filters: dict[int, Filter] = {}

    # Process leaves first, then interior nodes deepest-first.
    nodes_by_depth = sorted(range(1, tree.num_nodes),
                            key=tree.depth, reverse=True)
    for node in nodes_by_depth:
        if tree.is_leaf(node):
            members = np.flatnonzero(assignment == node)
            if len(members) == 0:
                filters[node] = Filter.empty(problem.event_dim)
            else:
                subs = problem.subscriptions.take(members)
                filters[node] = Filter(alpha_meb_cover(subs, alpha, rng))
        else:
            child_rects = [filters[c].rects for c in tree.children(node)
                           if not filters[c].is_empty()]
            if not child_rects:
                filters[node] = Filter.empty(problem.event_dim)
            else:
                merged = child_rects[0]
                for extra in child_rects[1:]:
                    merged = merged.concat(extra)
                filters[node] = Filter(alpha_meb_cover(merged, alpha, rng))
    return filters
