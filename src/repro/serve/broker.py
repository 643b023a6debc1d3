"""Live broker core: routing table, delivery queues, publication path.

This is the in-process heart of the service — everything the TCP
gateway does funnels into a :class:`LiveBroker`.  The broker owns:

* a :class:`~repro.dynamic.manager.DynamicPubSub` manager placing
  arrivals with the online greedy rule (filters grow-only between
  re-optimizations, exactly the paper's deployment story);
* an immutable :class:`RoutingTable` snapshot (assignment + broker
  filters) that ``publish`` reads and a re-optimization swaps
  *atomically* — one reference assignment, never a half-updated tree;
* one bounded FIFO :class:`DeliveryQueue` per active subscriber with
  drop accounting: when a subscriber's client cannot drain fast enough,
  the broker sheds its events instead of stalling the publish path
  (backpressure).

Delivery semantics mirror the batch simulator and the discrete-event
runtime exactly: an event reaches a leaf iff every filter on the
publisher-to-leaf path contains it, and is delivered to each active
assigned subscriber whose subscription contains it (matched via the
:mod:`repro.pubsub.matching` machinery).  That equivalence is what the
serve-vs-runtime differential oracle asserts.
"""

from __future__ import annotations

from collections import deque
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable

import numpy as np

from ..core.problem import SAProblem
from ..dynamic.manager import DynamicPubSub
from ..network.tree import BrokerTree
from ..pubsub.filters import Filter
from ..pubsub.matching import Matcher, best_matcher
from ..pubsub.routing import RoutingPlan
from . import protocol

__all__ = ["Publication", "DeliveryQueue", "RoutingTable", "LiveBroker"]

#: The per-event counts every publish path returns, in reply order.
_COUNTS = ("matched", "delivered", "dropped", "missed")


class Publication:
    """One published event, shared by every queue it is delivered to.

    The subscriber-independent end of its delivery frame is encoded on
    first use and reused for every later delivery of the same event.
    """

    __slots__ = ("point", "sent_at", "event_id", "_tail")

    def __init__(self, point: np.ndarray, sent_at: float | None,
                 event_id: Any):
        self.point = point
        self.sent_at = sent_at
        self.event_id = event_id
        self._tail: bytes | None = None

    def tail(self) -> bytes:
        """:func:`~repro.serve.protocol.event_tail` of this event."""
        if self._tail is None:
            self._tail = protocol.event_tail(self.point.tolist(),
                                             self.sent_at, self.event_id)
        return self._tail


class DeliveryQueue:
    """A bounded per-subscriber FIFO with backpressure drop accounting.

    The consumer registers an ``on_ready`` hook with :meth:`bind`; an
    offer into an empty queue calls it, so the consumer learns which
    queues hold items without polling every one.  ``taken`` counts the
    items handed out, which numbers them for the wire.
    """

    __slots__ = ("subscriber", "capacity", "_items", "_on_ready",
                 "enqueued", "dropped", "taken", "peak", "closed")

    def __init__(self, subscriber: int, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.subscriber = subscriber
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._on_ready: Callable[[DeliveryQueue], None] | None = None
        self.enqueued = 0
        self.dropped = 0
        self.taken = 0
        self.peak = 0
        self.closed = False

    def __len__(self) -> int:
        return len(self._items)

    def bind(self, on_ready: Callable[[DeliveryQueue], None]) -> None:
        """Call ``on_ready(self)`` whenever an offer fills an empty queue."""
        self._on_ready = on_ready

    def offer(self, item: Any) -> bool:
        """Enqueue without blocking; ``False`` (and a drop) when full."""
        return self.offer_many([item]) == 1

    def offer_many(self, items: list[Any]) -> int:
        """Enqueue ``items`` in order until full; returns how many fit.

        The rest are dropped, exactly as one :meth:`offer` per item
        would drop them.
        """
        queue = self._items
        room = 0 if self.closed else self.capacity - len(queue)
        if len(items) > room:
            self.dropped += len(items) - room
            items = items[:room]
            if not items:
                return 0
        was_empty = not queue
        queue.extend(items)
        self.enqueued += len(items)
        if len(queue) > self.peak:
            self.peak = len(queue)
        if was_empty and self._on_ready is not None:
            self._on_ready(self)
        return len(items)

    def take(self, limit: int) -> list[Any]:
        """Remove and return up to ``limit`` items, oldest first."""
        items = self._items
        if len(items) <= limit:
            out = list(items)
            items.clear()
        else:
            out = [items.popleft() for _ in range(limit)]
        self.taken += len(out)
        return out

    def close(self) -> None:
        """Refuse further offers and shed whatever is still queued."""
        self.closed = True
        self._items.clear()


class RoutingTable:
    """An immutable snapshot of the dissemination state.

    ``publish`` only ever reads one table object, and the reoptimizer
    replaces the broker's reference wholesale, so routing is atomic with
    respect to re-assignment without any locking on the hot path.
    """

    __slots__ = ("version", "assignment", "_plan")

    def __init__(self, version: int, tree: BrokerTree,
                 filters: dict[int, Filter], assignment: np.ndarray):
        self.version = version
        assignment = np.asarray(assignment, dtype=int).copy()
        assignment.setflags(write=False)
        self.assignment = assignment
        self._plan = RoutingPlan(tree, filters)

    def route(self, points: np.ndarray, matcher: Matcher
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Route a batch of points: ``(arrived, entered, match, delivered)``.

        The :meth:`~repro.pubsub.routing.RoutingPlan.block` step under
        this table's assignment; nothing reaches an inactive subscriber.
        """
        return self._plan.block(points, matcher, self.assignment)


def _coordinates(values: Any) -> np.ndarray:
    """``values`` as a float array; ``ValueError`` when it holds non-numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"event coordinates must be numbers: {exc}") from None


class LiveBroker:
    """The live service state machine behind the gateway.

    All mutating entry points run on the event loop (or behind the
    gateway's churn lock for the thread-offloaded re-optimization), so
    plain attribute updates are safe; ``publish`` never awaits between
    reading the routing table and accounting the event, making each
    publication atomic from the loop's point of view.
    """

    def __init__(self, problem: SAProblem, *, queue_capacity: int = 1024,
                 seed: int = 0):
        self._problem = problem
        self._manager = DynamicPubSub(problem, seed=seed)
        # The population is fixed (subscribers churn by activation, not
        # by changing boxes), so the index can be chosen once up front.
        self._matcher = best_matcher(problem.subscriptions)
        self._queue_capacity = queue_capacity
        self._queues: dict[int, DeliveryQueue] = {}

        m = problem.num_subscribers
        self.deliveries = np.zeros(m, dtype=np.int64)   #: enqueued per sub
        self.drops = np.zeros(m, dtype=np.int64)        #: shed per sub
        self.node_entries = np.zeros(problem.tree.num_nodes, dtype=np.int64)
        self.published = 0
        self.matched = 0
        self.missed = 0          #: matched but leaf unreachable via filters
        self.subscribes = 0
        self.unsubscribes = 0
        self.shed_on_unsubscribe = 0  #: enqueued, then cleared by unsubscribe
        self.churn_since_reopt = 0
        self._routing = self._build_routing(version=0)

    # -- snapshots -----------------------------------------------------------

    @property
    def problem(self) -> SAProblem:
        return self._problem

    @property
    def manager(self) -> DynamicPubSub:
        return self._manager

    @property
    def routing(self) -> RoutingTable:
        return self._routing

    @property
    def active_count(self) -> int:
        return self._manager.active_count

    def queue(self, subscriber: int) -> DeliveryQueue:
        return self._queues[subscriber]

    def _build_routing(self, version: int) -> RoutingTable:
        return RoutingTable(version, self._problem.tree,
                            self._manager.current_filters(),
                            self._manager.assignment)

    def _swap_routing(self) -> None:
        self._routing = self._build_routing(self._routing.version + 1)

    # -- membership ----------------------------------------------------------

    def _validate_subscriber(self, subscriber: Any) -> int:
        if isinstance(subscriber, bool) or not isinstance(subscriber, int):
            raise ValueError("subscriber must be an integer population index")
        if not (0 <= subscriber < self._problem.num_subscribers):
            raise ValueError(
                f"subscriber {subscriber} outside the population "
                f"[0, {self._problem.num_subscribers})")
        return subscriber

    def subscribe(self, subscriber: Any) -> int:
        """Activate a population member; returns its assigned leaf node."""
        j = self._validate_subscriber(subscriber)
        if j in self._queues:
            raise ValueError(f"subscriber {j} is already subscribed")
        leaf = self._manager.arrive(j)
        self._queues[j] = DeliveryQueue(j, self._queue_capacity)
        self.subscribes += 1
        self.churn_since_reopt += 1
        self._swap_routing()
        return leaf

    def unsubscribe(self, subscriber: Any) -> None:
        """Deactivate a subscriber; its queued events are shed."""
        j = self._validate_subscriber(subscriber)
        if j not in self._queues:
            raise ValueError(f"subscriber {j} is not subscribed")
        self._manager.depart(j)
        queue = self._queues.pop(j)
        self.shed_on_unsubscribe += len(queue)
        queue.close()
        self.unsubscribes += 1
        self.churn_since_reopt += 1
        self._swap_routing()

    # -- publication ---------------------------------------------------------

    def event_point(self, point: Any) -> np.ndarray:
        """``point`` as a validated event: finite, one float per dimension.

        Raises ``ValueError`` otherwise.
        """
        pt = _coordinates(point)
        if pt.shape != (self._problem.event_dim,):
            raise ValueError(f"event point must have {self._problem.event_dim}"
                             f" coordinates, got shape {pt.shape}")
        if not np.all(np.isfinite(pt)):
            raise ValueError("event point coordinates must be finite")
        return pt

    def publish(self, point: Any, *, sent_at: float | None = None,
                event_id: Any = None) -> dict[str, int]:
        """Route one event through the current table; returns the counts."""
        counts = self._publish(self.event_point(point)[None, :], [sent_at],
                               [event_id])
        return {key: column[0] for key, column in zip(_COUNTS, counts)}

    def publish_batch(self, points: Any, *, sent_at: float | None = None,
                      event_ids: list[Any] | None = None) -> dict[str, int]:
        """Route a batch of events through one routing-table snapshot.

        Counts and queue contents are exactly those of per-event
        :meth:`publish` calls, but the whole batch pays one routing pass
        and one ``match_points`` matrix.  Being synchronous, the batch is
        atomic with respect to churn from the event loop's point of
        view — it reads a single table snapshot.
        """
        pts = _coordinates(points)
        if pts.shape == (0,):
            pts = pts.reshape(0, self._problem.event_dim)
        if pts.ndim != 2 or pts.shape[1] != self._problem.event_dim:
            raise ValueError(f"event points must have shape (n, "
                             f"{self._problem.event_dim}), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("event point coordinates must be finite")
        if event_ids is not None and len(event_ids) != pts.shape[0]:
            raise ValueError("need one event id per point")
        n = pts.shape[0]
        counts = self._publish(pts, [sent_at] * n, event_ids or [None] * n)
        summary = {key: sum(column) for key, column in zip(_COUNTS, counts)}
        summary["events"] = n
        return summary

    def publish_block(self, points: list[np.ndarray], sent_ats: list[Any],
                      event_ids: list[Any]) -> list[dict[str, int]]:
        """Route events already checked by :meth:`event_point` as one block.

        Each event keeps its own ``sent_at`` and id, and gets its own
        counts: those one :meth:`publish` call per event, in order, would
        return.
        """
        counts = self._publish(np.array(points), sent_ats, event_ids)
        return [dict(zip(_COUNTS, column)) for column in zip(*counts)]

    def _publish(self, pts: np.ndarray, sent_ats: list[Any],
                 event_ids: list[Any]) -> list[list[int]]:
        """Account and enqueue validated ``(n, event_dim)`` points.

        Returns one list per entry of ``_COUNTS``, holding that count
        for each event.
        """
        _, entered, match, deliver = self._routing.route(pts, self._matcher)
        n = pts.shape[0]
        self.node_entries += entered.sum(axis=1)
        self.published += n
        # Flat indices, not axis sums: numpy reduces small bool matrices
        # along an axis several times slower than it finds their nonzeros.
        subs, cols = divmod(np.flatnonzero(deliver), n)
        self.deliveries += np.bincount(subs, minlength=len(self.deliveries))
        matched = np.bincount(np.flatnonzero(match) % n, minlength=n).tolist()
        delivered = np.bincount(cols, minlength=n).tolist()
        dropped = [0] * n
        missed = [m - d for m, d in zip(matched, delivered)]
        events = [Publication(pt, sent_at, event_id)
                  for pt, sent_at, event_id in zip(pts, sent_ats, event_ids)]
        queues = self._queues
        # Subscriber-major with events ascending: one offer hands each
        # queue all its events, in event order.
        for j, pairs in groupby(zip(subs.tolist(), cols.tolist()),
                                itemgetter(0)):
            mine = [i for _, i in pairs]
            queue = queues.get(j)
            if queue is None:  # unsubscribed after the snapshot
                lost, shed = mine, missed
            else:
                taken = queue.offer_many([events[i] for i in mine])
                if taken == len(mine):
                    continue
                lost, shed = mine[taken:], dropped
                self.drops[j] += len(lost)
            self.deliveries[j] -= len(lost)
            for i in lost:
                delivered[i] -= 1
                shed[i] += 1
        self.matched += sum(matched)
        self.missed += sum(missed)
        return [matched, delivered, dropped, missed]

    # -- re-optimization -----------------------------------------------------

    def reoptimize(self, algorithm: str = "SLP1", *,
                   precommit=None, **kwargs: Any) -> dict[str, Any]:
        """Full re-assignment of the active set, atomically swapped in.

        ``precommit`` (see :meth:`DynamicPubSub.reoptimize`) may veto the
        new solution — the invariant gate — in which case the manager
        state and the routing table are left untouched.
        """
        info = self._manager.reoptimize(algorithm, precommit=precommit,
                                        **kwargs)
        if info.get("committed", True):
            self.churn_since_reopt = 0
            self._swap_routing()
        return info

    # -- stats ---------------------------------------------------------------

    @property
    def delivery_rate(self) -> float:
        """Enqueued fraction of matched events (1.0 when none matched)."""
        if self.matched == 0:
            return 1.0
        return float(self.deliveries.sum()) / self.matched

    def stats(self) -> dict[str, Any]:
        queues = self._queues.values()
        return {
            "active_subscribers": self.active_count,
            "published": self.published,
            "matched": self.matched,
            "delivered": int(self.deliveries.sum()),
            "dropped_backpressure": int(self.drops.sum()),
            "missed": self.missed,
            "delivery_rate": self.delivery_rate,
            "broker_entries": int(self.node_entries[1:].sum()),
            "subscribes": self.subscribes,
            "unsubscribes": self.unsubscribes,
            "shed_on_unsubscribe": self.shed_on_unsubscribe,
            "churn_since_reopt": self.churn_since_reopt,
            "routing_version": self._routing.version,
            "queue_depth_peak": max((q.peak for q in queues), default=0),
        }
