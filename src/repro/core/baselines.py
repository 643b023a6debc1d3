"""Baseline assignment algorithms from the paper's evaluation (Section VI).

These deliberately ignore one optimization criterion each; the paper uses
them to show that single-criterion solutions are poor yardsticks:

* **Closest¬b** — assign every subscriber to its nearest leaf broker in
  the network space (minimizes last-hop latency; no load cap), after
  Aguilera et al. [1].
* **Closest** — nearest broker among those not yet at their ``beta_max``
  share; a full broker is dropped from further consideration.
* **Balance** — the least achievable load-balance factor via max-flow
  over latency-feasible edges, ignoring the event space entirely.

None of these considers subscriptions, so their filters are derived after
the fact with the same bottom-up alpha-MEB construction the other
algorithms use (:func:`repro.core.problem.filters_from_assignment`) —
which is also why their bandwidth is so poor.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .problem import SAProblem, SASolution, filters_from_assignment
from .slp.assign_flow import min_lbf_routing

__all__ = ["closest_broker", "balance_assignment"]


def closest_broker(problem: SAProblem, *, enforce_load_cap: bool,
                   seed: int = 0) -> SASolution:
    """Closest (``enforce_load_cap=True``) or Closest¬b (``False``).

    Subscribers are processed in index order; with the load cap on, a
    broker that reaches ``floor(beta_max * kappa_i * m)`` subscribers stops
    accepting (the paper's Closest drops full brokers from consideration).
    """
    started = time.perf_counter()
    m = problem.num_subscribers
    # Distances, not path latencies: Closest minimizes the *last hop*.
    from ..network.space import pairwise_distances
    distances = pairwise_distances(problem.tree.leaf_positions(),
                                   problem.subscriber_points)

    caps = np.array([
        math.floor(problem.params.beta_max * kappa * m) for kappa in problem.kappas])
    loads = np.zeros(problem.num_leaf_brokers, dtype=int)
    rows = np.empty(m, dtype=int)
    for j in range(m):
        ranking = np.argsort(distances[:, j], kind="stable")
        chosen = int(ranking[0])
        if enforce_load_cap:
            for row in ranking:
                if loads[row] < caps[row]:
                    chosen = int(row)
                    break
        rows[j] = chosen
        loads[chosen] += 1

    assignment = problem.tree.leaves[rows]
    rng = np.random.default_rng(seed)
    filters = filters_from_assignment(problem, assignment, rng)
    name = "Closest" if enforce_load_cap else "Closest-no-balance"
    return SASolution(problem=problem, assignment=assignment, filters=filters,
                      info={"algorithm": name,
                            "runtime_seconds": time.perf_counter() - started})


def balance_assignment(problem: SAProblem, *, seed: int = 0,
                       beta_hi: float = 64.0) -> SASolution:
    """Balance: the assignment with the smallest achievable lbf.

    One max-flow over latency-feasible edges (paper: "a variant of the
    [graph] construction in Section IV-B") whose caps rise from breakpoint
    to breakpoint only when the routing proves they must, so the factor
    found is the exact minimum (at most ``beta_hi``).
    """
    started = time.perf_counter()
    rows, lbf = min_lbf_routing(problem.feasible_leaf, problem.kappas, beta_hi)
    assignment = np.where(rows >= 0, problem.tree.leaves[np.maximum(rows, 0)], -1)
    rng = np.random.default_rng(seed)
    filters = filters_from_assignment(problem, assignment, rng)
    return SASolution(problem=problem, assignment=assignment, filters=filters,
                      info={"algorithm": "Balance",
                            "achieved_lbf": lbf,
                            "feasible_flow": bool((rows >= 0).all()),
                            "runtime_seconds": time.perf_counter() - started})
