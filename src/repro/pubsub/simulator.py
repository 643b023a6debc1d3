"""End-to-end dissemination simulation.

The analytic bandwidth metric assumes ``Q(B_i) = measure(f_i)``; this
module *verifies* that story by actually pushing sampled events through
the broker tree:

1. an event enters a broker iff it lies inside the broker's filter and
   entered the broker's parent (the root's children receive everything the
   publisher emits that matches their filter);
2. a leaf broker delivers the event to each assigned subscriber whose
   subscription contains it.

The result reports empirical per-broker inbound traffic, per-subscriber
deliveries, and — crucially — *missed deliveries*: events a subscriber
should have received but whose path was blocked by a filter.  A correct
solution (nesting condition satisfied) has zero misses; the test suite
asserts this invariant for every algorithm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..geometry import RectSet
from ..network.tree import BrokerTree
from .events import EventDistribution
from .filters import Filter
from .matching import Matcher, best_matcher
from .routing import RoutingPlan

__all__ = ["SimulationResult", "sample_event_stream", "simulate_dissemination",
           "SIMULATION_SCHEMA_VERSION"]

#: Schema version stamped into simulation and runtime result exports, so
#: serve/runtime/bench outputs are uniformly parseable.
SIMULATION_SCHEMA_VERSION = 1


def sample_event_stream(distribution: EventDistribution,
                        rng: np.random.Generator,
                        num_events: int,
                        chunk_size: int = 512) -> np.ndarray:
    """Sample ``num_events`` event points with the simulator's chunking.

    Drawing in ``chunk_size`` batches is how :func:`simulate_dissemination`
    consumes the RNG; sampling through this helper with the same generator
    state therefore yields the *identical* point sequence, which is what
    lets the discrete-event runtime (:mod:`repro.runtime`) reproduce the
    batch simulation exactly on a shared seed.
    """
    if num_events < 0:
        raise ValueError("num_events must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    if num_events == 0:
        # Delegate the empty draw to the distribution so the dtype (and
        # the untouched generator state) match the chunked path exactly;
        # a bare np.empty would pin float64 even for distributions that
        # sample another dtype.
        return distribution.sample(rng, 0)
    chunks = []
    remaining = num_events
    while remaining > 0:
        batch = min(chunk_size, remaining)
        remaining -= batch
        chunks.append(distribution.sample(rng, batch))
    return np.concatenate(chunks, axis=0)


@dataclass(frozen=True)
class SimulationResult:
    """What happened when ``num_events`` sampled events were published."""

    num_events: int
    #: events that entered each tree node (index = node id; publisher sees all)
    node_entries: np.ndarray
    #: deliveries per subscriber
    deliveries: np.ndarray
    #: events each subscriber matched but did not receive (0 iff nesting holds)
    missed: np.ndarray
    #: per-delivery path latency sum and count, for mean delivery latency
    total_delivery_latency: float

    @property
    def total_broker_entries(self) -> int:
        """Total inbound broker traffic (excludes the publisher itself)."""
        return int(self.node_entries[1:].sum())

    @property
    def total_deliveries(self) -> int:
        return int(self.deliveries.sum())

    @property
    def total_missed(self) -> int:
        return int(self.missed.sum())

    def empirical_bandwidth(self, domain_measure: float) -> float:
        """Estimate of ``Q(T)``: traffic fraction scaled to the domain measure.

        Comparable to the analytic ``sum_i measure(f_i)`` because each
        broker's entry fraction estimates ``measure(f_i) / measure(E)``.
        """
        if self.num_events == 0:
            return 0.0
        return self.total_broker_entries / self.num_events * domain_measure

    @property
    def mean_delivery_latency(self) -> float:
        if self.total_deliveries == 0:
            return 0.0
        return self.total_delivery_latency / float(self.total_deliveries)

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction of matched events (1.0 when nothing matched).

        Guarded against the empty cases: zero events, zero subscribers,
        or zero matching events all report a perfect rate rather than
        dividing by zero.
        """
        expected = self.total_deliveries + self.total_missed
        if expected == 0:
            return 1.0
        return float(self.total_deliveries) / expected

    def _counts(self, kind: str) -> dict[str, Any]:
        """The leading keys of every result payload, in their fixed order."""
        return {
            "schema_version": SIMULATION_SCHEMA_VERSION,
            "kind": kind,
            "num_events": self.num_events,
            "node_entries": self.node_entries.tolist(),
            "deliveries": self.deliveries.tolist(),
            "missed": self.missed.tolist(),
            "total_delivery_latency": self.total_delivery_latency,
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready export sharing the bench payloads' schema fields."""
        return {**self._counts("simulation_result"),
                "total_broker_entries": self.total_broker_entries,
                "delivery_rate": self.delivery_rate}

    def dump(self, path: str, *,
             params: dict[str, Any] | None = None) -> None:
        """Write :meth:`to_dict` plus the git/host provenance block.

        ``params`` (e.g. the CLI's ``--chunk-size``) is stamped into the
        payload so the provenance records how the run was produced.
        """
        from ..bench.harness import run_metadata  # lazy: avoids cycles
        payload = self.to_dict()
        if params:
            payload["params"] = dict(params)
        payload["metadata"] = run_metadata()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def simulate_dissemination(tree: BrokerTree,
                           filters: dict[int, Filter],
                           assignment: np.ndarray,
                           subscriptions: RectSet,
                           distribution: EventDistribution,
                           rng: np.random.Generator,
                           num_events: int = 2000,
                           chunk_size: int = 512,
                           subscriber_points: np.ndarray | None = None,
                           matcher: Matcher | None = None) -> SimulationResult:
    """Publish sampled events and measure traffic, deliveries, and misses.

    The hot path is fully batched: each chunk is one
    :meth:`~repro.pubsub.routing.RoutingPlan.block` step (entry masks
    over every filter, one ``matcher.match_points`` matrix, deliveries).
    Results are bit-identical for any matcher that agrees with the
    brute-force oracle and for any ``chunk_size`` (given a chunk-stable
    event distribution): all counts are integer sums over the same
    boolean matrices, and the latency total is computed once from the
    final delivery counts.

    Parameters
    ----------
    filters:
        Filter per broker node id (every non-publisher node must appear).
    assignment:
        ``assignment[j]`` = leaf *node id* serving subscriber ``j``, or -1
        for an inactive subscriber (counted neither delivered nor missed).
        Any other entry raises :class:`ValueError`.
    subscriber_points:
        Optional network positions of subscribers; when given, delivery
        latency includes the last hop from the leaf to the subscriber.
    matcher:
        Matching index used for delivery checks; defaults to
        :func:`~repro.pubsub.matching.best_matcher` over the event
        domain.
    """
    if num_events < 0:
        raise ValueError("num_events must be non-negative")
    if chunk_size < 1:
        raise ValueError("chunk_size must be at least 1")
    plan = RoutingPlan(tree, filters)
    num_subscribers = len(subscriptions)
    assignment = plan.check(assignment)
    if assignment.shape != (num_subscribers,):
        raise ValueError("assignment must map every subscriber to a leaf node")

    node_entries = np.zeros(tree.num_nodes, dtype=np.int64)
    deliveries = np.zeros(num_subscribers, dtype=np.int64)
    missed = np.zeros(num_subscribers, dtype=np.int64)
    total_latency = 0.0
    if matcher is None and (assignment >= 0).any():
        matcher = best_matcher(subscriptions, distribution.domain)

    remaining = num_events
    while remaining > 0:
        batch = min(chunk_size, remaining)
        remaining -= batch
        events = distribution.sample(rng, batch)
        _, entered, match, delivered = plan.block(events, matcher, assignment)
        node_entries += entered.sum(axis=1)
        counts = delivered.sum(axis=1)
        deliveries += counts
        missed += match.sum(axis=1) - counts
        # Free it before the next block allocates: holding both matrices
        # across it makes malloc fault the next pair in (~10% of a pass).
        del match

    # Delivery latency: every delivered event takes the fixed assigned path
    # publisher -> leaf (-> subscriber, when positions are known).
    if num_subscribers:
        path_latency = tree.down_latency[assignment].astype(float)
        if subscriber_points is not None:
            pts = np.asarray(subscriber_points, dtype=float)
            last_hop = np.linalg.norm(tree.positions[assignment] - pts, axis=1)
            path_latency = path_latency + last_hop
        total_latency = float((deliveries * path_latency).sum())

    return SimulationResult(num_events=num_events,
                            node_entries=node_entries,
                            deliveries=deliveries,
                            missed=missed,
                            total_delivery_latency=total_latency)
