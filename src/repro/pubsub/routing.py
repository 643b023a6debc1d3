"""The dissemination rule, evaluated for a batch of events at once.

An event enters a broker iff it lies in the broker's filter and entered
the broker's parent (the publisher sees every event); a leaf broker
delivers it to each assigned subscriber whose subscription contains it.
:class:`RoutingPlan` owns that rule for the batch simulator, the
epoch-mode runtime and the live broker: every filter rectangle is
stacked into one :class:`~repro.geometry.RectSet`, so routing a batch
is one ``contains_points`` call, a segmented ``logical_or`` back to
per-filter masks, and a root-first pass over the tree.
:meth:`RoutingPlan.block` adds the match and delivery matrices, so each
plane keeps only its own accounting of the step.
"""

from __future__ import annotations

import numpy as np

from ..geometry import RectSet
from ..network.tree import PUBLISHER, BrokerTree
from .filters import Filter
from .matching import Matcher

__all__ = ["RoutingPlan"]


class RoutingPlan:
    """One tree's filters, stacked for batched routing.

    Parameters
    ----------
    tree:
        The broker tree.
    filters:
        Filter per broker node id (every non-publisher node must appear).
        Nodes with an empty filter are never entered, and so neither is
        anything beneath them.
    """

    def __init__(self, tree: BrokerTree, filters: dict[int, Filter]):
        for node in range(1, tree.num_nodes):
            if node not in filters:
                raise ValueError(f"missing filter for broker node {node}")
        self.tree = tree
        nodes = [node for node in tree.root_first_order[1:]
                 if not filters[node].is_empty()]
        # (node, parent, row of the node's filter in the stacked masks)
        self._steps = [(node, int(tree.parents[node]), row)
                       for row, node in enumerate(nodes)]
        self._stacked: RectSet | None = None
        if nodes:
            self._stacked = RectSet(
                np.concatenate([filters[n].rects.lo for n in nodes]),
                np.concatenate([filters[n].rects.hi for n in nodes]),
                validate=False)
            self._starts = np.cumsum(
                [0] + [len(filters[n].rects) for n in nodes])[:-1]
        # Which entries an assignment may hold, indexed by the entry
        # clipped to [-2, num_nodes]: slot num_nodes (read by -2 and by
        # num_nodes) rejects out-of-range ids, the last slot is -1's.
        self._assignable = np.zeros(tree.num_nodes + 2, dtype=bool)
        self._assignable[tree.leaves] = True
        self._assignable[-1] = True

    def entries(self, points: np.ndarray, alive: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """``(arrived, entered)``, each ``(num_nodes, n)`` bool over the batch.

        An event arrives at a node iff the node's filter contains it and
        it entered the parent; it enters iff it arrived and the node is
        alive.  A crashed node (``alive[node]`` false) forwards nothing.
        Without ``alive`` every node is alive and both are one matrix.
        """
        entered = np.zeros((self.tree.num_nodes, len(points)), dtype=bool)
        entered[PUBLISHER] = True
        arrived = entered if alive is None else entered.copy()
        if self._stacked is None:
            return arrived, entered
        in_filter = np.logical_or.reduceat(
            self._stacked.contains_points(points), self._starts, axis=0)
        for node, parent, row in self._steps:
            np.logical_and(entered[parent], in_filter[row], out=arrived[node])
            if alive is not None and alive[node]:
                entered[node] = arrived[node]
        return arrived, entered

    def check(self, assignment: np.ndarray) -> np.ndarray:
        """``assignment`` as an int array whose entries are -1 or leaf ids.

        ``-1`` marks an inactive subscriber.  Any other entry must name a
        leaf broker, else :class:`ValueError`: interior brokers deliver
        to nobody, so a subscriber assigned to one would silently
        receive nothing.
        """
        assignment = np.asarray(assignment, dtype=int)
        bad = ~self._assignable[np.clip(assignment, -2, self.tree.num_nodes)]
        if bad.any():
            j = int(np.flatnonzero(bad)[0])
            raise ValueError(f"subscriber {j} is assigned to node "
                             f"{int(assignment[j])}, which is neither -1 "
                             f"nor a leaf broker")
        return assignment

    def block(self, points: np.ndarray, matcher: Matcher | None,
              assignment: np.ndarray, alive: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One dissemination step: ``(arrived, entered, match, delivered)``.

        ``arrived`` and ``entered`` are :meth:`entries`.  ``match`` is
        ``matcher.match_points(points)`` with the rows of inactive
        subscribers cleared, and ``delivered`` is ``match`` where the
        event also entered the subscriber's leaf, both ``(len(assignment),
        n)``.  ``assignment`` must already have passed :meth:`check`, which
        each plane runs once when it takes an assignment, not per block;
        when no subscriber is active the matcher is not called (it may be
        None).
        """
        arrived, entered = self.entries(points, alive)
        inactive = assignment < 0
        if inactive.all():
            match = np.zeros((len(assignment), len(points)), dtype=bool)
            return arrived, entered, match, match.copy()
        match = matcher.match_points(points)
        match[inactive] = False
        # An inactive row reads node -1's entries; its cleared match
        # row delivers none of them.
        delivered = entered[assignment]
        delivered &= match
        return arrived, entered, match, delivered
