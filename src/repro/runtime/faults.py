"""Fault injection for the dissemination runtime, with graceful degradation.

Two fault families:

* **Broker outages** — scheduled crash/recover windows.  A crashed
  broker drops its queue, loses in-flight arrivals, and blocks its whole
  subtree (descendant leaves become unreachable).  Telemetry records one
  span per outage window.
* **Probabilistic link loss** — each forwarding hop independently drops
  the message with a configured probability (driven by the engine's
  dedicated loss RNG, so the published event stream stays untouched).

Graceful degradation is **failover re-assignment**: when a broker
crashes, the subscribers whose assigned leaf became unreachable are
re-assigned to reachable, latency-feasible leaves with the same online
greedy rule the dynamic manager uses (least filter enlargement along the
path, load-aware tie-break), and the surviving brokers' filters are
grown to cover the migrants so deliveries resume immediately.  This is
exactly the paper's online-arrival machinery (`repro.core.greedy` /
`repro.dynamic`) reused as a repair step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.greedy import _LoadCaps, _TreeFilterState, _greedy_assign_one
from ..core.problem import SAProblem
from ..network.tree import PUBLISHER
from .engine import DisseminationEngine

__all__ = ["BrokerOutage", "FaultPlan", "GreedyFailover", "apply_fault_plan"]


@dataclass(frozen=True)
class BrokerOutage:
    """One crash window: ``node`` is down from ``start`` until ``end``.

    ``end=None`` means the broker never recovers within the run.
    """

    node: int
    start: float
    end: float | None = None

    def __post_init__(self) -> None:
        if self.node == PUBLISHER:
            raise ValueError("the publisher (node 0) cannot crash")
        if self.start < 0:
            raise ValueError("outage start must be non-negative")
        if self.end is not None and self.end <= self.start:
            raise ValueError("outage end must come after its start")


@dataclass(frozen=True)
class FaultPlan:
    """A full fault scenario: outages plus optional link loss."""

    outages: tuple[BrokerOutage, ...] = field(default=())
    #: delay between a crash and the failover repair kicking in (models
    #: failure-detection lag); deliveries to orphans are lost meanwhile.
    failover_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.failover_delay < 0:
            raise ValueError("failover_delay must be non-negative")


class GreedyFailover:
    """Re-assign orphaned subscribers of unreachable leaves, greedily.

    Instances are installed on an engine via :func:`apply_fault_plan`
    (or ``engine.set_failover``) and invoked on every crash.  The repair:

    1. find leaves whose path to the publisher crosses a dead broker;
    2. for each active subscriber assigned there, pick a reachable
       latency-feasible leaf by least filter enlargement (online greedy
       rule, restricted to reachable leaves);
    3. grow the surviving filters along the new paths and hand both the
       new assignment and filters back to the engine.

    Telemetry: ``failover_migrations`` counts moved subscribers,
    ``failover_latency_violations`` counts migrants placed best-effort
    because no reachable leaf met their latency budget, and
    ``failover_stranded`` counts orphans left in place because *no* leaf
    was reachable at all (they accrue misses until a recovery).
    """

    def __init__(self, problem: SAProblem, *, delay: float = 0.0):
        self.problem = problem
        self.delay = float(delay)

    def __call__(self, engine: DisseminationEngine, time: float,
                 node: int) -> None:
        if self.delay > 0.0:
            engine.schedule(time + self.delay,
                            lambda eng, t: self.repair(eng, t))
        else:
            self.repair(engine, time)

    def repair(self, engine: DisseminationEngine, time: float) -> None:
        problem = self.problem
        tree = problem.tree
        reachable = engine.reachable_leaf_rows()
        if reachable.all():
            return  # a recovery beat the delayed repair; nothing orphaned
        assignment = engine.assignment

        unreachable_leaves = set(
            int(leaf) for row, leaf in enumerate(tree.leaves)
            if not reachable[row])
        orphans = [j for j, leaf in enumerate(assignment)
                   if int(leaf) in unreachable_leaves]
        if not orphans:
            return

        if not reachable.any():
            engine.telemetry.counter("failover_stranded").inc(len(orphans))
            return

        state = _TreeFilterState(problem)
        state.load_filters(engine.filters)
        loads = problem.loads(assignment)
        caps = _LoadCaps(problem, int((assignment >= 0).sum()))

        migrated = 0
        stranded = 0
        for j in orphans:
            feasible = problem.feasible_leaf[:, j] & reachable
            if not feasible.any():
                # Latency budget can't be met on any surviving leaf; fall
                # back to best-effort placement so delivery continues.
                row, _ok = _greedy_assign_one(
                    problem, state, loads, j, False, caps, allowed=reachable)
                stranded += 1
            else:
                row, _ok = _greedy_assign_one(
                    problem, state, loads, j, True, caps, allowed=reachable)
            old_row = tree.leaf_row(int(assignment[j]))
            loads[old_row] -= 1
            loads[row] += 1
            assignment[j] = int(tree.leaves[row])
            migrated += 1

        engine.update_assignment(assignment)
        engine.update_filters(state.to_filters(problem.event_dim))
        engine.telemetry.counter("failover_migrations").inc(migrated)
        if stranded:
            engine.telemetry.counter("failover_latency_violations").inc(stranded)
        engine.telemetry.span("failover", time, migrated=migrated,
                              stranded=stranded).close(time)


def apply_fault_plan(engine: DisseminationEngine, plan: FaultPlan,
                     problem: SAProblem | None = None, *,
                     failover: bool = True) -> None:
    """Wire a fault plan into an engine before ``run``.

    ``problem`` is required when ``failover`` is on — the repair needs
    the latency-feasibility structures.  Link loss is configured on the
    engine itself (:class:`~repro.runtime.engine.RuntimeConfig.link_loss`).
    """
    if failover:
        if problem is None:
            raise ValueError("failover repair needs the SAProblem; pass "
                             "problem= or failover=False")
        engine.set_failover(GreedyFailover(problem, delay=plan.failover_delay))
    for outage in plan.outages:
        engine.schedule_crash(outage.start, outage.node)
        if outage.end is not None:
            engine.schedule_recover(outage.end, outage.node)
