"""The one dissemination kernel: :class:`repro.pubsub.RoutingPlan`.

The plan's batched block step (entry, match and delivery matrices) must
equal a naive walk that routes one point at a time down the tree, node
by node, and every plane routing through it must refuse assignments to
non-leaf brokers.
"""

import numpy as np
import pytest

from repro import DisseminationEngine, RuntimeConfig, UniformEvents
from repro.geometry import Rect, RectSet
from repro.network import BrokerTree
from repro.network.tree import PUBLISHER
from repro.pubsub import (BruteForceMatcher, Filter, RoutingPlan,
                          simulate_dissemination)
from repro.serve.broker import RoutingTable

# Interior brokers 1, 2 and 4; leaves 3, 5, 6, 7 and 8.
PARENTS = [-1, 0, 0, 1, 1, 2, 2, 4, 4]
EMPTY_INTERIOR = 2
CRASHED_INTERIOR = 4


def random_filter(rng, rects=3):
    lo = rng.uniform(0.0, 0.6, size=(rects, 2))
    return Filter(RectSet(lo, lo + rng.uniform(0.2, 0.6, size=(rects, 2))))


@pytest.fixture
def network(rng):
    tree = BrokerTree(rng.normal(size=(len(PARENTS), 2)), PARENTS)
    filters = {node: random_filter(rng) for node in range(1, tree.num_nodes)}
    filters[EMPTY_INTERIOR] = Filter.empty(2)
    return tree, filters


def naive_walk(tree, filters, point, alive):
    """Per-node ``(arrived, entered)`` flags for one point."""
    arrived = {PUBLISHER: True}
    entered = {PUBLISHER: True}
    for node in tree.root_first_order[1:]:
        parent = int(tree.parents[node])
        arrived[node] = entered[parent] and filters[node].contains_point(point)
        entered[node] = arrived[node] and bool(alive[node])
    return arrived, entered


class TestRoutingPlan:
    def test_matches_naive_walk(self, network, rng):
        tree, filters = network
        plan = RoutingPlan(tree, filters)
        assignment = np.array([3, 5, 7, 8, -1, 6, 3, -1])
        lo = rng.uniform(0.0, 0.5, size=(len(assignment), 2))
        subs = RectSet(lo, lo + 0.5)
        for n in (0, 1, 200):
            for crash in (False, True):
                points = rng.uniform(0.0, 1.0, size=(n, 2))
                alive = np.ones(tree.num_nodes, dtype=bool)
                alive[CRASHED_INTERIOR] = not crash
                block = plan.block(points, BruteForceMatcher(subs),
                                   assignment, alive if crash else None)
                self.check(tree, filters, subs, points, alive, assignment,
                           *block)
                arrived, entered, _, _ = block
                if crash and n > 1:
                    # It received events, yet forwarded none of them.
                    assert arrived[CRASHED_INTERIOR].any()
                    assert not entered[CRASHED_INTERIOR].any()
                    assert not arrived[[7, 8]].any()

    @staticmethod
    def check(tree, filters, subs, points, alive, assignment, arrived,
              entered, match, delivered):
        n = len(points)
        assert arrived.shape == entered.shape == (tree.num_nodes, n)
        assert match.shape == delivered.shape == (len(assignment), n)
        for i, point in enumerate(points):
            want_arrived, want_entered = naive_walk(tree, filters, point,
                                                    alive)
            for node in range(tree.num_nodes):
                assert arrived[node, i] == want_arrived[node]
                assert entered[node, i] == want_entered[node]
            for j, leaf in enumerate(assignment):
                want_match = leaf >= 0 and subs.take([j]).contains_points(
                    point[None, :])[0, 0]
                assert match[j, i] == want_match
                assert delivered[j, i] == (want_match
                                           and want_entered[int(leaf)])
        # An empty interior filter blocks its whole subtree.
        assert not arrived[[EMPTY_INTERIOR, 5, 6]].any()
        # Nothing matches or reaches an inactive subscriber.
        assert not match[assignment < 0].any()

    def test_no_active_subscriber_skips_the_matcher(self, network):
        tree, filters = network
        _, entered, match, delivered = RoutingPlan(tree, filters).block(
            np.full((4, 2), 0.5), None, np.array([-1, -1]))
        assert entered[PUBLISHER].all()
        assert match.shape == delivered.shape == (2, 4)
        assert not match.any() and not delivered.any()

    @pytest.mark.parametrize("bad", [0, 1, CRASHED_INTERIOR, -2,
                                     len(PARENTS)])
    def test_reach_rejects_non_leaf_assignment(self, network, bad):
        """``check`` is the gate each plane runs when it takes an
        assignment; ``block`` itself trusts its caller."""
        tree, filters = network
        plan = RoutingPlan(tree, filters)
        with pytest.raises(ValueError, match="neither -1 nor a leaf"):
            plan.check(np.array([3, bad, -1]))


class TestInteriorAssignmentRejected:
    """A subscriber assigned to an interior broker is an error, not silence."""

    def instance(self, network, rng):
        tree, filters = network
        lo = rng.uniform(0.0, 0.8, size=(6, 2))
        subs = RectSet(lo, lo + 0.2)
        assignment = np.array([3, 5, 6, 7, 8, 3])
        return tree, filters, subs, assignment

    def test_simulator(self, network, rng):
        tree, filters, subs, assignment = self.instance(network, rng)
        assignment[0] = 1
        with pytest.raises(ValueError, match="neither -1 nor a leaf"):
            simulate_dissemination(tree, filters, assignment, subs,
                                   UniformEvents(Rect([0, 0], [1, 1])), rng,
                                   num_events=50)

    def test_routing_table(self, network, rng):
        tree, filters, subs, assignment = self.instance(network, rng)
        assignment[0] = 1
        with pytest.raises(ValueError, match="neither -1 nor a leaf"):
            RoutingTable(0, tree, filters, assignment)

    @pytest.mark.parametrize("epoch_batch", [0, 16])
    def test_engine(self, network, rng, epoch_batch):
        tree, filters, subs, assignment = self.instance(network, rng)
        config = RuntimeConfig(epoch_batch=epoch_batch)
        interior = assignment.copy()
        interior[0] = 1
        with pytest.raises(ValueError, match="neither -1 nor a leaf"):
            DisseminationEngine(tree, filters, interior, subs, config=config)
        engine = DisseminationEngine(tree, filters, assignment, subs,
                                     config=config)
        with pytest.raises(ValueError, match="neither -1 nor a leaf"):
            engine.update_assignment(interior)
        assert np.array_equal(engine.assignment, assignment)
