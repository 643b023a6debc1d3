"""Scalar vs epoch-mode runtime: sha256 bit-identity under every regime.

``RuntimeConfig(epoch_batch=N)`` services publish runs as one matrix
step instead of heap-stepping event by event.  The contract is *bit*
identity, not statistical agreement: the complete result payload —
entry counts, deliveries, misses, latency totals, duration, queue
peaks, and all telemetry including histogram buckets — must hash equal
to the scalar engine's on a shared seed, whatever faults, failover
delays, churn, or abort guards are in play.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import (
    BrokerOutage,
    DisseminationEngine,
    FaultPlan,
    ReplayConfig,
    RuntimeConfig,
    UniformEvents,
    apply_fault_plan,
    offline_greedy,
    replay_churn,
)
from repro.dynamic.churn import generate_churn_trace
from repro.geometry import Rect
from repro.verify import epoch_runtime_oracle

DIST = UniformEvents(Rect([0, 0], [100, 100]))
NUM_EVENTS = 600
SEED = 7


def sha(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


def run_engine(problem, solution, *, epoch_batch, plan=None, failover=True,
               num_events=NUM_EVENTS, **config_kwargs):
    engine = DisseminationEngine(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions,
        config=RuntimeConfig(epoch_batch=epoch_batch, **config_kwargs),
        subscriber_points=problem.subscriber_points)
    if plan is not None:
        apply_fault_plan(engine, plan, problem if failover else None,
                         failover=failover)
    return engine.run(DIST, np.random.default_rng(SEED), num_events)


def victim_leaf(problem, solution):
    loads = problem.loads(solution.assignment)
    return int(problem.tree.leaves[int(loads.argmax())])


class TestBitIdentity:
    @pytest.mark.parametrize("epoch_batch", [1, 7, 512])
    def test_fault_free(self, tiny_problem, epoch_batch):
        solution = offline_greedy(tiny_problem)
        scalar = run_engine(tiny_problem, solution, epoch_batch=0)
        epoch = run_engine(tiny_problem, solution, epoch_batch=epoch_batch)
        assert sha(scalar) == sha(epoch)
        assert scalar.duration == epoch.duration

    def test_crash_recover_with_failover(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        victim = victim_leaf(tiny_problem, solution)
        plan = FaultPlan(outages=(BrokerOutage(victim, 100.0, 400.0),))
        scalar = run_engine(tiny_problem, solution, epoch_batch=0, plan=plan)
        epoch = run_engine(tiny_problem, solution, epoch_batch=128, plan=plan)
        assert sha(scalar) == sha(epoch)
        # The schedule actually bit: failover migrated somebody.
        assert epoch.telemetry.counter("failover_migrations").value > 0

    def test_sorted_latency_fold_is_order_free(self, tiny_problem):
        # Each batch size cuts the run into different blocks around the
        # crash/recover barriers, so the latencies reach the run-end fold
        # in a different order every time; the sorted fold must not care.
        solution = offline_greedy(tiny_problem)
        assert tiny_problem.subscriber_points is not None
        victim = victim_leaf(tiny_problem, solution)
        plan = FaultPlan(outages=(BrokerOutage(victim, 100.0, 400.0),))
        runs = [run_engine(tiny_problem, solution, epoch_batch=batch,
                           plan=plan, failover=False)
                for batch in (0, 1, 7, 512)]
        assert len({sha(result) for result in runs}) == 1
        for result in runs:
            histogram = result.telemetry.histogram("delivery_latency")
            assert result.total_delivery_latency == histogram.sum
            assert histogram.count == result.total_deliveries
        # The outage actually cut deliveries.
        assert runs[0].total_missed > 0

    def test_delayed_failover_fires_and_matches(self, tiny_problem):
        # Regression: a failover delay schedules its repair *mid-run*;
        # the engine must honour controls scheduled while running (they
        # also act as epoch barriers).
        solution = offline_greedy(tiny_problem)
        victim = victim_leaf(tiny_problem, solution)
        plan = FaultPlan(outages=(BrokerOutage(victim, 100.0, None),),
                         failover_delay=25.0)
        scalar = run_engine(tiny_problem, solution, epoch_batch=0, plan=plan)
        epoch = run_engine(tiny_problem, solution, epoch_batch=64, plan=plan)
        assert sha(scalar) == sha(epoch)
        assert scalar.telemetry.counter("failover_migrations").value > 0

    def test_churn_replay(self, tiny_problem):
        trace = generate_churn_trace(
            tiny_problem.num_subscribers, 10, np.random.default_rng(3),
            initial_active_fraction=0.5, arrival_rate=4.0,
            departure_rate=4.0)

        def replay(epoch_batch):
            result, _system = replay_churn(
                tiny_problem, trace, DIST, np.random.default_rng(SEED),
                NUM_EVENTS,
                engine_config=RuntimeConfig(epoch_batch=epoch_batch),
                replay_config=ReplayConfig(reopt_every=4))
            return result

        assert sha(replay(0)) == sha(replay(256))

    def test_max_duration_abort(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        scalar = run_engine(tiny_problem, solution, epoch_batch=0,
                            max_duration=277.5)
        epoch = run_engine(tiny_problem, solution, epoch_batch=512,
                           max_duration=277.5)
        assert scalar.aborted and epoch.aborted
        assert sha(scalar) == sha(epoch)

    def test_trace_prefix_stays_scalar(self, tiny_problem):
        # The first trace_events publishes must go through the scalar
        # path (spans are recorded per hop); the rest may batch.  Either
        # way the result is identical and spans actually exist.
        solution = offline_greedy(tiny_problem)
        scalar = run_engine(tiny_problem, solution, epoch_batch=0,
                            trace_events=10)
        epoch = run_engine(tiny_problem, solution, epoch_batch=128,
                           trace_events=10)
        assert sha(scalar) == sha(epoch)
        assert epoch.telemetry.to_dict()["spans"]

    def test_epoch_gate_defers_to_scalar_when_unsupported(self, tiny_problem):
        # service_time > 0 breaks the zero-service identity the epoch
        # step relies on, so the engine must quietly run scalar.
        solution = offline_greedy(tiny_problem)
        scalar = run_engine(tiny_problem, solution, epoch_batch=0,
                            service_time=0.05)
        epoch = run_engine(tiny_problem, solution, epoch_batch=128,
                           service_time=0.05)
        assert sha(scalar) == sha(epoch)

    def test_oracle_harness(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        report = epoch_runtime_oracle(tiny_problem, solution, DIST,
                                      seed=SEED, num_events=300)
        assert report.agree, report.detail


class TestEpochConfig:
    def test_negative_epoch_batch_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(epoch_batch=-1)

    def test_epoch_is_faster_in_spirit(self, tiny_problem):
        # Not a benchmark — just pin that both paths process the same
        # number of events and report the same throughput denominator.
        solution = offline_greedy(tiny_problem)
        scalar = run_engine(tiny_problem, solution, epoch_batch=0,
                            num_events=200)
        epoch = run_engine(tiny_problem, solution, epoch_batch=64,
                           num_events=200)
        assert scalar.num_events == epoch.num_events == 200
        assert scalar.events_per_time() == epoch.events_per_time()


class TestGateReevaluation:
    """The epoch gate must track ``engine.config``, not latch at run start.

    A mid-run control that swaps the config to something epoch mode
    cannot model (non-zero service time introduces queueing) is the
    planted divergence: a latched gate would keep matrix-stepping under
    the stale assumptions and the epoch run's payload would drift from
    the scalar run's.
    """

    @staticmethod
    def _run_with_midrun_service_time(problem, solution, *, epoch_batch):
        import dataclasses

        engine = DisseminationEngine(
            problem.tree, solution.filters, solution.assignment,
            problem.subscriptions,
            config=RuntimeConfig(epoch_batch=epoch_batch),
            subscriber_points=problem.subscriber_points)

        def enable_service_time(eng, _time):
            eng.config = dataclasses.replace(eng.config, service_time=0.25)

        engine.schedule(NUM_EVENTS * 0.4, enable_service_time)
        return engine.run(DIST, np.random.default_rng(SEED), NUM_EVENTS)

    def test_midrun_config_swap_disables_batching(self, tiny_problem):
        solution = offline_greedy(tiny_problem)
        scalar = self._run_with_midrun_service_time(
            tiny_problem, solution, epoch_batch=0)
        epoch = self._run_with_midrun_service_time(
            tiny_problem, solution, epoch_batch=128)
        assert sha(scalar) == sha(epoch)
        # The swap actually bit: with queueing enabled the run takes
        # longer than the pure publish schedule.
        assert scalar.duration > NUM_EVENTS - 1

    def test_midrun_interval_change_disables_batching(self, tiny_problem):
        # A changed publish interval invalidates the time vectors the
        # matrix step derives from the run-start interval; the gate must
        # notice even though every *batchable* config knob stays benign.
        import dataclasses

        solution = offline_greedy(tiny_problem)

        def run(epoch_batch):
            engine = DisseminationEngine(
                tiny_problem.tree, solution.filters,
                solution.assignment, tiny_problem.subscriptions,
                config=RuntimeConfig(epoch_batch=epoch_batch),
                subscriber_points=tiny_problem.subscriber_points)

            def stretch_interval(eng, _time):
                eng.config = dataclasses.replace(eng.config,
                                                 publish_interval=2.0)

            engine.schedule(NUM_EVENTS * 0.5, stretch_interval)
            return engine.run(DIST, np.random.default_rng(SEED), NUM_EVENTS)

        assert sha(run(0)) == sha(run(128))
