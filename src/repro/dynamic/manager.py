"""Online subscriber assignment with periodic re-optimization.

This implements the deployment story the paper sketches for SLP
(Section I / VIII): arrivals are assigned *online* with the greedy rule
(cheap, incremental), filters only ever grow between optimizations —
so solution quality drifts as subscribers come and go — and a periodic
**re-optimization** with SLP1 (or any registered algorithm) restores
quality at the cost of migrating some subscribers between brokers.

The manager tracks both:

* the *online* filters — the grow-only rectangles maintained by the
  greedy rule, which determine current bandwidth; and
* the *migration cost* of each re-optimization — how many active
  subscribers changed brokers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.greedy import _greedy_assign_one, _LoadCaps, _TreeFilterState
from ..core.problem import SAProblem, filters_from_assignment
from ..core.registry import get_algorithm
from ..metrics.bandwidth import total_bandwidth
from .churn import ChurnStep

__all__ = ["DynamicSnapshot", "DynamicPubSub"]


@dataclass(frozen=True)
class DynamicSnapshot:
    """Metrics of the running system at one point in time."""

    step: int
    active_count: int
    bandwidth: float          #: with the current (grow-only) filters
    tight_bandwidth: float    #: if filters were re-tightened right now
    lbf: float
    total_migrations: int


class DynamicPubSub:
    """A running pub/sub system over a fixed candidate population.

    ``problem`` describes the *population*: every subscriber that may
    ever arrive, with precomputed latency structures.  At any moment a
    subset is active; arrivals are placed by the online greedy rule and
    departures simply free capacity (filters keep their extent until the
    next re-optimization — the realistic drift the dynamic problem is
    about).
    """

    def __init__(self, problem: SAProblem, *, seed: int = 0):
        self._problem = problem
        self._rng = np.random.default_rng(seed)
        m = problem.num_subscribers
        self._assignment = np.full(m, -1, dtype=int)   # leaf node ids
        self._loads = np.zeros(problem.num_leaf_brokers, dtype=int)
        self._state = _TreeFilterState(problem)
        self._caps = _LoadCaps(problem, 0)
        self.total_migrations = 0
        self._step = 0

    # -- membership ---------------------------------------------------------

    @property
    def problem(self) -> SAProblem:
        return self._problem

    @property
    def active_mask(self) -> np.ndarray:
        return self._assignment >= 0

    @property
    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self._assignment >= 0)

    @property
    def active_count(self) -> int:
        return int(self.active_mask.sum())

    @property
    def assignment(self) -> np.ndarray:
        """Leaf node per population member (-1 = inactive)."""
        return self._assignment.copy()

    # -- online operations ----------------------------------------------------

    def arrive(self, subscriber: int) -> int:
        """Assign an arriving subscriber with the online greedy rule."""
        if self._assignment[subscriber] >= 0:
            raise ValueError(f"subscriber {subscriber} is already active")
        # Load caps scale with the *current* active population.
        population = self.active_count + 1
        if self._caps.population != population:
            self._caps.rescale(population)
        row, _ok = _greedy_assign_one(
            self._problem, self._state, self._loads, subscriber,
            True, self._caps)
        leaf = int(self._problem.tree.leaves[row])
        self._assignment[subscriber] = leaf
        self._loads[row] += 1
        return leaf

    def depart(self, subscriber: int) -> None:
        """Deactivate a subscriber; its broker's filter does not shrink."""
        leaf = int(self._assignment[subscriber])
        if leaf < 0:
            raise ValueError(f"subscriber {subscriber} is not active")
        self._loads[self._problem.tree.leaf_row(leaf)] -= 1
        self._assignment[subscriber] = -1

    def apply(self, step: ChurnStep) -> None:
        """Apply one churn step (arrivals first, then departures — the
        order the trace generator samples them in, so a same-step arrival
        may also depart)."""
        for j in step.arrivals:
            self.arrive(int(j))
        for j in step.departures:
            self.depart(int(j))
        self._step = step.step + 1

    # -- metrics ----------------------------------------------------------------

    def current_filters(self):
        """The grow-only online filters (drifted between optimizations)."""
        return self._state.to_filters(self._problem.event_dim)

    def tight_filters(self):
        """Filters re-tightened around the currently active assignment."""
        return filters_from_assignment(self._problem, self._assignment,
                                       self._rng)

    def bandwidth(self, *, tight: bool = False) -> float:
        filters = self.tight_filters() if tight else self.current_filters()
        return total_bandwidth(filters)

    def load_balance_factor(self) -> float:
        active = self.active_count
        if active == 0:
            return 0.0
        return float((self._loads
                      / (self._problem.kappas * active)).max())

    def snapshot(self) -> DynamicSnapshot:
        return DynamicSnapshot(
            step=self._step,
            active_count=self.active_count,
            bandwidth=self.bandwidth(),
            tight_bandwidth=self.bandwidth(tight=True),
            lbf=self.load_balance_factor(),
            total_migrations=self.total_migrations,
        )

    # -- re-optimization -----------------------------------------------------------

    def reoptimize(self, algorithm: str = "SLP1", *,
                   precommit: Any = None, **kwargs: Any) -> dict[str, Any]:
        """Reassign all active subscribers with a full (offline) algorithm.

        Returns a summary including the migration count.  The online
        filter state is re-seeded from the optimizer's adjusted filters,
        so subsequent arrivals grow tight filters rather than drifted
        ones.

        ``precommit``, when given, is called as ``precommit(sub_problem,
        solution)`` *before* any state changes; a falsy return vetoes
        the re-optimization — nothing is migrated, the summary carries
        ``committed: False`` — which is how the live service refuses to
        swap in a solution that fails invariant verification.
        """
        active = self.active_indices
        if len(active) == 0:
            return {"migrations": 0, "active": 0, "committed": False}

        sub_problem = SAProblem(
            self._problem.tree,
            self._problem.subscriber_points[active],
            self._problem.subscriptions.take(active),
            self._problem.params,
            kappas=self._problem.kappas,
        )
        solution = get_algorithm(algorithm)(sub_problem, **kwargs)
        if precommit is not None and not precommit(sub_problem, solution):
            return {"migrations": 0, "active": int(len(active)),
                    "algorithm": algorithm, "committed": False}

        old = self._assignment[active]
        new = np.asarray(solution.assignment, dtype=int)
        migrations = int((old != new).sum())
        self.total_migrations += migrations

        self._assignment[active] = new
        self._loads = self._problem.loads(self._assignment)
        self._state.load_filters(solution.filters)
        return {
            "migrations": migrations,
            "active": int(len(active)),
            "algorithm": algorithm,
            "bandwidth": total_bandwidth(solution.filters),
            "fractional": solution.fractional_bandwidth,
            "committed": True,
        }
