"""Replay churn traces through the dissemination runtime.

`repro.dynamic` models churn *between* batch evaluations: apply a step,
measure, repeat.  This module drives the same
:class:`~repro.dynamic.churn.ChurnTrace` while event traffic is flowing
— arrivals are placed by the online greedy rule mid-run, departures
deactivate subscribers mid-run, and an optional periodic re-optimization
swaps in a freshly optimized assignment, all as scheduled control
actions inside the discrete-event engine.

Delivery semantics under churn: an event is debited to a subscriber at
*publish* time (active subscribers whose subscription matches), so a
subscriber departing while the event is in flight records a miss, and
one arriving mid-flight may receive an un-debited delivery (never
counted as a miss — the engine clamps at zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.problem import SAProblem
from ..dynamic.churn import ChurnStep, ChurnTrace
from ..dynamic.manager import DynamicPubSub
from ..pubsub.events import EventDistribution
from .engine import DisseminationEngine, RuntimeConfig, RuntimeResult
from .faults import FaultPlan, apply_fault_plan
from .telemetry import Telemetry

__all__ = ["ReplayConfig", "replay_churn"]


@dataclass(frozen=True)
class ReplayConfig:
    """How a churn trace maps onto simulated time."""

    #: simulated time between consecutive churn steps; None spreads the
    #: whole trace evenly across the publishing window.
    step_interval: float | None = None
    #: run a full re-optimization every k churn steps (0 = never)
    reopt_every: int = 0
    reopt_algorithm: str = "SLP1"
    reopt_seed: int = 0

    def __post_init__(self) -> None:
        if self.step_interval is not None and self.step_interval <= 0:
            raise ValueError("step_interval must be positive")
        if self.reopt_every < 0:
            raise ValueError("reopt_every must be non-negative")


def replay_churn(problem: SAProblem,
                 trace: ChurnTrace,
                 distribution: EventDistribution,
                 rng: np.random.Generator,
                 num_events: int,
                 *,
                 engine_config: RuntimeConfig | None = None,
                 replay_config: ReplayConfig | None = None,
                 fault_plan: FaultPlan | None = None,
                 failover: bool = True,
                 manager_seed: int = 0,
                 telemetry: Telemetry | None = None,
                 ) -> tuple[RuntimeResult, DynamicPubSub]:
    """Run the engine while a churn trace plays out.

    The trace's initially-active subscribers are placed online (greedy)
    before traffic starts; each step is applied as a control action at
    its scheduled time.  An optional ``fault_plan`` injects broker
    outages on top of the churn.  Returns the runtime result and the
    dynamic manager in its final state (for migration counts, final
    filters, follow-up re-optimization, ...).
    """
    if trace.population_size != problem.num_subscribers:
        raise ValueError("trace population must match the problem's "
                         "subscriber count")
    engine_config = engine_config or RuntimeConfig()
    replay_config = replay_config or ReplayConfig()

    system = DynamicPubSub(problem, seed=manager_seed)
    for j in np.flatnonzero(trace.initially_active):
        system.arrive(int(j))

    engine = DisseminationEngine(
        problem.tree, system.current_filters(), system.assignment,
        problem.subscriptions, config=engine_config,
        subscriber_points=problem.subscriber_points, telemetry=telemetry)
    if fault_plan is not None:
        # Caveat when combining churn and faults: each churn step
        # re-imposes the manager's assignment, which may re-point some
        # subscribers at a crashed broker until the next crash-triggered
        # repair or a recovery.  The telemetry accounts either way.
        apply_fault_plan(engine, fault_plan,
                         problem if failover else None, failover=failover)

    if trace.horizon:
        if replay_config.step_interval is not None:
            interval = replay_config.step_interval
        else:
            window = max(num_events, 1) * engine_config.publish_interval
            interval = window / (trace.horizon + 1)
        for step in trace.steps:
            engine.schedule((step.step + 1) * interval,
                            _make_step_action(system, step, replay_config))
    result = engine.run(distribution, rng, num_events)
    return result, system


def _make_step_action(system: DynamicPubSub, step: ChurnStep,
                      config: ReplayConfig):
    def action(engine: DisseminationEngine, time: float) -> None:
        system.apply(step)
        engine.telemetry.counter("churn_arrivals").inc(len(step.arrivals))
        engine.telemetry.counter("churn_departures").inc(len(step.departures))
        if config.reopt_every and (step.step + 1) % config.reopt_every == 0:
            kwargs = ({"seed": config.reopt_seed}
                      if config.reopt_algorithm in ("SLP1", "SLP") else {})
            info = system.reoptimize(config.reopt_algorithm, **kwargs)
            engine.telemetry.counter("reoptimizations").inc()
            engine.telemetry.counter("reopt_migrations").inc(
                int(info.get("migrations", 0)))
            span = engine.telemetry.span("reoptimization", time,
                                         step=step.step + 1,
                                         migrations=info.get("migrations", 0))
            span.close(time)
        engine.update_assignment(system.assignment)
        engine.update_filters(system.current_filters())
    return action
