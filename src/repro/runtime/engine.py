"""Deterministic discrete-event simulation of the broker overlay.

The batch simulator (:mod:`repro.pubsub.simulator`) answers "how much
traffic does this assignment cost" by pushing all events through the
tree at once.  This engine answers the *temporal* questions the batch
model abstracts away: what happens when events queue up behind slow
brokers, when a broker crashes mid-run, when links drop messages, and
when subscribers churn while traffic is flowing.

Model
-----

* The publisher emits sampled events at ``publish_interval`` spacing.
* A message travels a tree edge in the edge's latency (Euclidean hop
  distance, exactly the :class:`~repro.network.tree.BrokerTree` model).
* Each broker has a FIFO ingress queue and a configurable per-event
  ``service_time``; an optional ``queue_capacity`` drops arrivals when
  the queue is full (backpressure), which the telemetry accounts.
* A broker forwards a serviced event to each child whose filter matches;
  leaf brokers additionally deliver to their assigned subscribers whose
  subscription contains the event.
* Control actions (faults, churn, reassignment) are scheduled at
  arbitrary times via :meth:`DisseminationEngine.schedule`.

Correctness anchor: with zero faults, zero service time, and a frozen
population, a run over the same RNG-sampled event stream reproduces
``simulate_dissemination`` *exactly* — same per-broker entry counts,
same deliveries, same misses (``tests/test_runtime_engine.py``).

Everything is deterministic: the event stream comes from the caller's
RNG, link loss from a separately seeded generator, and heap ties are
broken by insertion order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..geometry import RectSet
from ..network.tree import PUBLISHER, BrokerTree
from ..pubsub.events import EventDistribution
from ..pubsub.filters import Filter
from ..pubsub.matching import Matcher, best_matcher
from ..pubsub.routing import RoutingPlan
from ..pubsub.simulator import SimulationResult, sample_event_stream
from .telemetry import Telemetry

__all__ = ["RuntimeConfig", "RuntimeResult", "DisseminationEngine"]

# Control actions run before message arrivals scheduled at the same
# timestamp (a crash at t affects the event arriving at t), and
# publishes run after arrivals so in-flight work drains first.
_PRIO_CONTROL, _PRIO_ARRIVE, _PRIO_PUBLISH = 0, 1, 2


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the discrete-event runtime."""

    publish_interval: float = 1.0   #: simulated time between published events
    service_time: float = 0.0       #: per-event service time at every broker
    queue_capacity: int | None = None  #: max ingress queue depth (None = unbounded)
    link_loss: float = 0.0          #: per-hop message loss probability
    fault_seed: int = 0             #: seed of the loss RNG (independent of events)
    trace_events: int = 0           #: record a trace span for the first N events
    max_duration: float | None = None  #: abort past this simulated time
    epoch_batch: int = 512          #: publishes serviced per matrix step (0 = scalar)

    def __post_init__(self) -> None:
        if self.epoch_batch < 0:
            raise ValueError("epoch_batch must be non-negative")
        if self.publish_interval < 0:
            raise ValueError("publish_interval must be non-negative")
        if self.max_duration is not None and self.max_duration <= 0:
            raise ValueError("max_duration must be positive (or None)")
        if self.service_time < 0:
            raise ValueError("service_time must be non-negative")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1 (or None)")
        if not (0.0 <= self.link_loss < 1.0):
            raise ValueError("link_loss must be in [0, 1)")
        if self.trace_events < 0:
            raise ValueError("trace_events must be non-negative")


@dataclass(frozen=True)
class RuntimeResult(SimulationResult):
    """Counts and telemetry of one engine run.

    The counts and their metrics are the batch
    :class:`~repro.pubsub.simulator.SimulationResult`'s, so the two
    compare directly; the run adds its clock, queues and telemetry.
    """

    duration: float                #: simulated time of the last processed action
    queue_peaks: np.ndarray        #: max ingress queue depth seen per node
    telemetry: Telemetry
    aborted: bool = False          #: run hit the config's ``max_duration``

    def events_per_time(self) -> float:
        """Published events per unit of simulated time."""
        if self.duration <= 0.0:
            return 0.0
        return self.num_events / self.duration

    def to_dict(self) -> dict[str, Any]:
        """Deterministic export; :meth:`dump` adds the provenance block."""
        return {**self._counts("runtime_result"),
                "duration": self.duration,
                "queue_peaks": self.queue_peaks.tolist(),
                "aborted": self.aborted,
                "delivery_rate": self.delivery_rate,
                "telemetry": self.telemetry.to_dict()}


class _BrokerState:
    """Mutable per-broker runtime state: liveness, queue, service."""

    __slots__ = ("alive", "busy", "queue", "peak")

    def __init__(self) -> None:
        self.alive = True
        self.busy = False
        self.queue: deque[tuple[int, float]] = deque()  # (event idx, arrival t)
        self.peak = 0


class DisseminationEngine:
    """The discrete-event runtime over one broker tree.

    Parameters
    ----------
    tree, filters, assignment, subscriptions:
        Exactly the batch simulator's inputs; ``assignment[j]`` is the
        leaf node id serving subscriber ``j`` or ``-1`` for an inactive
        subscriber (churn).  Filters and assignment may be replaced
        mid-run via :meth:`update_filters` / :meth:`update_assignment`
        (the fault and replay drivers do).
    subscriber_points:
        Optional subscriber network positions; adds the leaf-to-subscriber
        last hop to delivery latency, matching the batch simulator.
    """

    def __init__(self,
                 tree: BrokerTree,
                 filters: dict[int, Filter],
                 assignment: np.ndarray,
                 subscriptions: RectSet,
                 *,
                 config: RuntimeConfig | None = None,
                 subscriber_points: np.ndarray | None = None,
                 telemetry: Telemetry | None = None):
        self.tree = tree
        self.config = config or RuntimeConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()

        self._plan = RoutingPlan(tree, filters)
        self._filters = dict(filters)

        self._subscriptions = subscriptions
        assignment = np.asarray(assignment, dtype=int).copy()
        if assignment.shape != (len(subscriptions),):
            raise ValueError("assignment must map every subscriber to a leaf "
                             "node id (or -1 for inactive)")
        self._assignment = self._plan.check(assignment)
        if subscriber_points is not None:
            pts = np.asarray(subscriber_points, dtype=float)
            if pts.shape[0] != len(subscriptions):
                raise ValueError("one network position per subscriber required")
            self._subscriber_points: np.ndarray | None = pts
        else:
            self._subscriber_points = None

        # Hop latency parent -> node, per node (publisher row unused).
        parents = tree.parents
        self._hop = np.zeros(tree.num_nodes)
        for v in range(1, tree.num_nodes):
            self._hop[v] = tree.down_latency[v] - tree.down_latency[int(parents[v])]

        self._brokers = [_BrokerState() for _ in range(tree.num_nodes)]
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._controls: list[tuple[float, Callable[
            ["DisseminationEngine", float], None]]] = []
        self._loss_rng = np.random.default_rng(self.config.fault_seed)
        self._failover: Callable[["DisseminationEngine", float, int], None] | None = None

        m = len(subscriptions)
        self._node_entries = np.zeros(tree.num_nodes, dtype=np.int64)
        self._deliveries = np.zeros(m, dtype=np.int64)
        self._matched = np.zeros(m, dtype=np.int64)
        self._now = 0.0
        self._events: np.ndarray | None = None
        self._traces: list[Any] = []

        # Epoch-mode machinery (see run()): a min-heap of pending control
        # times (the epoch barriers), a watermark of publishes consumed
        # by matrix blocks, and the delivery latency arrays of both
        # modes, folded sorted at run end so scalar and epoch stepping
        # produce the identical float total.
        self._pending_controls: list[float] = []
        self._running = False
        self._published_through = 0
        self._latencies: list[np.ndarray] = []
        self._epoch_matcher: Matcher | None = None
        self._run_interval = self.config.publish_interval
        self._run_domain: Any = None

    # -- live state accessors ------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def assignment(self) -> np.ndarray:
        return self._assignment.copy()

    @property
    def filters(self) -> dict[int, Filter]:
        return dict(self._filters)

    def is_alive(self, node: int) -> bool:
        return self._brokers[node].alive

    @property
    def alive_mask(self) -> np.ndarray:
        return np.array([b.alive for b in self._brokers], dtype=bool)

    def reachable_leaf_rows(self) -> np.ndarray:
        """Boolean mask over leaf rows whose full path to the root is alive."""
        alive = self.alive_mask
        mask = np.zeros(self.tree.num_leaves, dtype=bool)
        for row, leaf in enumerate(self.tree.leaves):
            mask[row] = all(alive[v] for v in self.tree.path_to_root(int(leaf))
                            if v != PUBLISHER)
        return mask

    # -- mid-run mutation (faults / churn drivers) ---------------------------

    def update_filters(self, filters: dict[int, Filter]) -> None:
        """Replace broker filters (e.g. after failover regrowth)."""
        self._filters.update(filters)
        self._plan = RoutingPlan(self.tree, self._filters)

    def update_assignment(self, assignment: np.ndarray) -> None:
        """Replace the subscriber -> leaf assignment (churn, failover)."""
        assignment = np.asarray(assignment, dtype=int)
        if assignment.shape != self._assignment.shape:
            raise ValueError("assignment shape must not change mid-run")
        self._assignment[:] = self._plan.check(assignment)

    def set_failover(self, handler: Callable[
            ["DisseminationEngine", float, int], None] | None) -> None:
        """Install a crash handler ``handler(engine, time, crashed_node)``."""
        self._failover = handler

    def schedule(self, time: float,
                 action: Callable[["DisseminationEngine", float], None]) -> None:
        """Schedule ``action(engine, time)`` as a control at a simulated time.

        Valid both before and during :meth:`run`: a control scheduled
        mid-run (e.g. a delayed failover repair) goes straight into the
        live heap.  (Before this, mid-run controls landed in the pre-run
        staging list — already drained — and silently never fired.)
        """
        time = float(time)
        if self._running:
            heapq.heappush(self._pending_controls, time)
            self._push(time, _PRIO_CONTROL, action)
        else:
            self._controls.append((time, action))

    def schedule_crash(self, time: float, node: int) -> None:
        self._validate_broker(node)
        self.schedule(time, lambda eng, t, _n=node: eng._crash(_n, t))

    def schedule_recover(self, time: float, node: int) -> None:
        self._validate_broker(node)
        self.schedule(time, lambda eng, t, _n=node: eng._recover(_n, t))

    def _validate_broker(self, node: int) -> None:
        if not (0 < node < self.tree.num_nodes):
            raise ValueError(f"node {node} is not a broker "
                             f"(valid: 1..{self.tree.num_nodes - 1})")

    # -- fault transitions ---------------------------------------------------

    def _crash(self, node: int, time: float) -> None:
        state = self._brokers[node]
        if not state.alive:
            return
        state.alive = False
        dropped = len(state.queue) + (1 if state.busy else 0)
        if dropped:
            self.telemetry.counter("events_lost_crashed").inc(dropped)
        state.queue.clear()
        state.busy = False
        self.telemetry.counter("broker_crashes").inc()
        self.telemetry.span(f"outage[node={node}]", time, node=node)
        if self._failover is not None:
            self._failover(self, time, node)

    def _recover(self, node: int, time: float) -> None:
        state = self._brokers[node]
        if state.alive:
            return
        state.alive = True
        self.telemetry.counter("broker_recoveries").inc()
        for span in self.telemetry.find_spans(f"outage[node={node}]"):
            if span.end is None:
                span.close(time)

    # -- the run -------------------------------------------------------------

    def run(self,
            distribution: EventDistribution,
            rng: np.random.Generator,
            num_events: int,
            chunk_size: int = 512) -> RuntimeResult:
        """Publish ``num_events`` sampled events and drain the overlay.

        The stream is sampled with the same chunking as the batch
        simulator, so the same ``rng`` state yields the identical
        sequence of event points.  An engine runs once: its counts,
        clock and telemetry belong to that run, so a second call raises
        ``RuntimeError``.
        """
        if self._events is not None:
            raise RuntimeError("DisseminationEngine.run() was already "
                               "called; build a new engine per run")
        if num_events < 0:
            raise ValueError("num_events must be non-negative")
        self._events = sample_event_stream(distribution, rng, num_events,
                                           chunk_size)
        for time, action in sorted(self._controls, key=lambda c: c[0]):
            self._push(time, _PRIO_CONTROL, action)
            heapq.heappush(self._pending_controls, time)
        self._controls.clear()
        for k in range(num_events):
            self._push(k * self.config.publish_interval, _PRIO_PUBLISH, k)

        self._running = True
        self._published_through = 0
        self._run_interval = self.config.publish_interval
        self._run_domain = distribution.domain

        aborted = False
        max_duration = self.config.max_duration
        heap = self._heap
        while heap:
            time, prio, _seq, payload = heapq.heappop(heap)
            if max_duration is not None and time > max_duration:
                # The guard against runaway replays: everything still
                # scheduled lies beyond the budget, so stop here.
                aborted = True
                self.telemetry.counter("aborted_max_duration").inc()
                heap.clear()
                break
            self._now = max(self._now, time)
            if prio == _PRIO_CONTROL:
                heapq.heappop(self._pending_controls)
                payload(self, time)
            elif prio == _PRIO_PUBLISH:
                k = int(payload)
                if k < self._published_through:
                    continue  # consumed by an earlier epoch block
                if self._epoch_eligible() and k >= self.config.trace_events:
                    if self._epoch_matcher is None:
                        self._epoch_matcher = best_matcher(
                            self._subscriptions, self._run_domain)
                    self._publish_epoch(k)
                else:
                    self._publish(k, time)
                    self._published_through = k + 1
            else:
                node, event_idx, kind = payload
                if kind == "arrive":
                    self._arrive(node, event_idx, time)
                else:
                    self._serve(node, event_idx, time)
        self._running = False

        # Delivery latency is folded once, over the sorted values: the
        # scalar heap and the epoch blocks append the same multiset in
        # different orders, and sorting makes the float sum (and so the
        # histogram) independent of that order.
        total_latency = 0.0
        if self._latencies:
            values = np.concatenate(self._latencies)
            self._latencies.clear()
            values.sort()
            total_latency = float(values.sum())
            self.telemetry.histogram("delivery_latency").observe_many(values)

        for span in self.telemetry.open_spans():
            span.close(self._now)
        missed = np.maximum(self._matched - self._deliveries, 0)
        self.telemetry.counter("missed_deliveries").inc(int(missed.sum()))
        peaks = np.array([b.peak for b in self._brokers], dtype=np.int64)
        if peaks.size:
            self.telemetry.gauge("queue_depth_peak").set(int(peaks.max()))
        return RuntimeResult(
            num_events=num_events,
            node_entries=self._node_entries.copy(),
            deliveries=self._deliveries.copy(),
            missed=missed,
            total_delivery_latency=total_latency,
            duration=self._now,
            queue_peaks=peaks,
            telemetry=self.telemetry,
            aborted=aborted)

    def _push(self, time: float, prio: int, payload: Any) -> None:
        heapq.heappush(self._heap, (time, prio, self._seq, payload))
        self._seq += 1

    def _epoch_eligible(self) -> bool:
        """Can the next publish run as a matrix step, per the *current* config?

        Epoch mode engages only where a matrix step is provably
        equivalent to scalar stepping: instantaneous service, no
        backpressure, no link-loss RNG draws, strictly increasing publish
        times (then no arrival can ever find a broker busy, so queue
        state is trivial between control barriers).

        Re-evaluated at every publish rather than latched at run start: a
        control action may swap ``self.config`` mid-run (a fault handler
        enabling service time, a replay driver adding backpressure), and
        a stale gate would keep matrix-stepping under assumptions that no
        longer hold.  A changed publish interval also disqualifies the
        fast path — the publish heap was laid out with the run-start
        interval, so matrix time vectors would disagree with the heap.
        """
        config = self.config
        return (config.epoch_batch > 0
                and config.service_time == 0.0
                and config.queue_capacity is None
                and config.link_loss == 0.0
                and config.publish_interval > 0.0
                and config.publish_interval == self._run_interval)

    # -- message lifecycle ---------------------------------------------------

    def _publish(self, k: int, time: float) -> None:
        point = self._events[k]
        self._node_entries[PUBLISHER] += 1
        self.telemetry.counter("events_published").inc()

        # Record which active subscribers *should* receive this event;
        # deliveries are debited against this at the end of the run.
        active = self._assignment >= 0
        if active.any():
            matches = self._subscriptions.contains_points(
                point[None, :])[:, 0] & active
            self._matched[matches] += 1

        if k < self.config.trace_events:
            span = self.telemetry.span(f"event[{k}]", time, event=k, hops=0,
                                       deliveries=0)
            self._traces.append(span)

        self._forward(PUBLISHER, k, time)

    def _publish_epoch(self, k: int) -> None:
        """Service a contiguous run of publishes as one matrix step.

        Semantics and bit-identity: under the epoch preconditions every
        action of event ``j`` happens at ``t_j = j * publish_interval``
        plus a chain of hop latencies, so the exact per-node arrival
        times of a whole candidate block are one root-first matrix
        recurrence (the identical float additions the scalar heap would
        perform).  The block is cut to the longest prefix whose events
        complete strictly *before* the next pending control time (and
        within ``max_duration``), so crash/recover/churn barriers see
        exactly the scalar engine's state.  Routing is one
        :meth:`~repro.pubsub.routing.RoutingPlan.block` step under the
        current alive mask; counts are the same boolean matrices summed; the
        block's latencies join the scalar path's in the run-end sorted
        fold.
        """
        config = self.config
        tree = self.tree
        end = min(k + config.epoch_batch, len(self._events))
        t_vec = np.arange(k, end, dtype=np.int64) * config.publish_interval
        arrive = np.empty((tree.num_nodes, len(t_vec)))
        arrive[PUBLISHER] = t_vec
        for node in tree.root_first_order[1:]:
            arrive[node] = (arrive[int(tree.parents[node])]
                            + self._hop[node])
        bound = arrive.max(axis=0)   # conservative: over all nodes
        barrier = (self._pending_controls[0] if self._pending_controls
                   else np.inf)
        ok = bound < barrier
        if config.max_duration is not None:
            ok &= bound <= config.max_duration
        n = len(ok) if bool(ok.all()) else int(np.argmin(ok))
        if n == 0:
            # The very next event straddles a barrier: step it scalar.
            self._publish(k, float(t_vec[0]))
            self._published_through = k + 1
            return

        pts = self._events[k:k + n]
        t_vec = t_vec[:n]
        arrive = arrive[:, :n]
        self.telemetry.counter("events_published").inc(n)

        assignment = self._assignment
        # Arrivals at a crashed node are lost, not forwarded.
        arrived, entered, match, delivered = self._plan.block(
            pts, self._epoch_matcher, assignment, self.alive_mask)
        self._matched += match.sum(axis=1)
        counts = entered.sum(axis=1)
        self._node_entries += counts
        entries = int(counts[1:].sum())
        lost = int(arrived[1:].sum()) - entries
        if entries:
            self.telemetry.counter("broker_entries").inc(entries)
        if lost:
            self.telemetry.counter("events_lost_crashed").inc(lost)

        counts = delivered.sum(axis=1)
        self._deliveries += counts
        if counts.any():
            self.telemetry.counter("deliveries").inc(int(counts.sum()))
            self._record_latencies(delivered, assignment, arrive, t_vec)

        # Advance the clock to the block's last *processed* action: the
        # final publish, or the latest arrival that actually happened.
        self._now = max(self._now, float(t_vec[-1]),
                        float(arrive[arrived].max()))
        self._published_through = k + n

    def _record_latencies(self, delivered: np.ndarray,
                          assignment: np.ndarray, arrive: np.ndarray,
                          t_vec: np.ndarray) -> None:
        """Append an epoch block's delivery latencies, one per delivery.

        ``delivered`` is the block's ``(subscribers, n)`` delivery matrix
        and ``assignment`` maps each subscriber to its leaf.  Each value
        comes from the same float operations as :meth:`_deliver`; their
        order does not matter, because the run-end fold sorts them.
        """
        receivers, event = np.nonzero(delivered)
        leaf = assignment[receivers]
        latency = arrive[leaf, event] - t_vec[event]
        if self._subscriber_points is not None:
            latency = latency + np.linalg.norm(
                self.tree.positions[leaf]
                - self._subscriber_points[receivers], axis=1)
        self._latencies.append(latency)

    def _forward(self, node: int, k: int, time: float) -> None:
        """Send event ``k`` from ``node`` to each matching child."""
        point = self._events[k]
        for child in self.tree.children(node):
            if not self._filters[child].contains_point(point):
                continue
            if self.config.link_loss > 0.0 and \
                    self._loss_rng.random() < self.config.link_loss:
                self.telemetry.counter("link_drops").inc()
                continue
            self._push(time + self._hop[child], _PRIO_ARRIVE,
                       (child, k, "arrive"))

    def _arrive(self, node: int, k: int, time: float) -> None:
        state = self._brokers[node]
        if not state.alive:
            self.telemetry.counter("events_lost_crashed").inc()
            return
        self._node_entries[node] += 1
        self.telemetry.counter("broker_entries").inc()
        if k < self.config.trace_events:
            span = self._traces[k]
            span.attributes["hops"] += 1
            span.end = time

        if state.busy:
            capacity = self.config.queue_capacity
            if capacity is not None and len(state.queue) >= capacity:
                self.telemetry.counter("events_dropped_backpressure").inc()
                return
            state.queue.append((k, time))
            state.peak = max(state.peak, len(state.queue))
        else:
            state.busy = True
            self._push(time + self.config.service_time, _PRIO_ARRIVE,
                       (node, k, "serve"))

    def _serve(self, node: int, k: int, time: float) -> None:
        state = self._brokers[node]
        if not state.alive:
            # Crash raced the in-flight service completion; already counted.
            return
        if self.tree.is_leaf(node):
            self._deliver(node, k, time)
        self._forward(node, k, time)

        if state.queue:
            next_k, queued_at = state.queue.popleft()
            self.telemetry.histogram("queue_wait").observe(time - queued_at)
            self._push(time + self.config.service_time, _PRIO_ARRIVE,
                       (node, next_k, "serve"))
        else:
            state.busy = False

    def _deliver(self, leaf: int, k: int, time: float) -> None:
        members = np.flatnonzero(self._assignment == leaf)
        if len(members) == 0:
            return
        point = self._events[k]
        mask = self._subscriptions.take(members).contains_points(
            point[None, :])[:, 0]
        receivers = members[mask]
        if len(receivers) == 0:
            return
        self._deliveries[receivers] += 1
        publish_time = k * self.config.publish_interval
        latency = np.full(len(receivers), time - publish_time)
        if self._subscriber_points is not None:
            latency = latency + np.linalg.norm(
                self.tree.positions[leaf] - self._subscriber_points[receivers],
                axis=1)
        # Folded at run end with every other latency, sorted; see run().
        self._latencies.append(latency)
        self.telemetry.counter("deliveries").inc(len(receivers))
        if k < self.config.trace_events:
            span = self._traces[k]
            span.attributes["deliveries"] += len(receivers)
            span.end = time
