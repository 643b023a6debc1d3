"""Tests for the BrokerTree dissemination tree."""

import numpy as np
import pytest

from repro.network import (
    BrokerTree,
    build_hierarchical_tree,
    build_one_level_tree,
    pairwise_distances,
)


def chain_tree():
    """publisher(0) -> broker(1) -> broker(2) -> broker(3), on a line."""
    positions = np.array([[0.0, 0], [1.0, 0], [3.0, 0], [6.0, 0]])
    parents = np.array([-1, 0, 1, 2])
    return BrokerTree(positions, parents)


def star_tree(num_brokers=4):
    positions = np.vstack([np.zeros(2),
                           np.column_stack([np.arange(1, num_brokers + 1),
                                            np.zeros(num_brokers)])])
    parents = np.zeros(num_brokers + 1, dtype=int)
    parents[0] = -1
    return BrokerTree(positions, parents)


class TestConstruction:
    def test_chain_structure(self):
        t = chain_tree()
        assert t.num_nodes == 4
        assert t.num_brokers == 3
        assert t.leaves.tolist() == [3]
        assert t.height == 3

    def test_down_latencies(self):
        t = chain_tree()
        assert np.allclose(t.down_latency, [0, 1, 3, 6])

    def test_children(self):
        t = chain_tree()
        assert t.children(0) == [1]
        assert t.children(3) == []
        assert t.is_leaf(3)
        assert not t.is_leaf(1)

    def test_cycle_rejected(self):
        positions = np.zeros((3, 2))
        with pytest.raises(ValueError):
            BrokerTree(positions, np.array([-1, 2, 1]))

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError):
            BrokerTree(np.zeros((2, 2)), np.array([0, 0]))

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(ValueError):
            BrokerTree(np.zeros((2, 2)), np.array([-1, 7]))

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            BrokerTree(np.zeros((1, 2)), np.array([-1]))

    def test_path_to_root(self):
        t = chain_tree()
        assert t.path_to_root(3) == [3, 2, 1, 0]
        assert t.path_to_root(0) == [0]


class TestLatencies:
    def test_subscriber_latencies_star(self):
        t = star_tree(2)  # brokers at (1,0), (2,0)
        subs = np.array([[1.0, 1.0]])
        lat = t.subscriber_latencies(subs)
        # leaf 1: down 1 + dist((1,0)-(1,1)) = 1 + 1
        assert lat[0, 0] == pytest.approx(2.0)
        # leaf 2: down 2 + dist((2,0)-(1,1)) = 2 + sqrt(2)
        assert lat[1, 0] == pytest.approx(2.0 + np.sqrt(2.0))

    def test_shortest_latency_is_min(self):
        t = star_tree(4)
        subs = np.random.default_rng(0).uniform(-5, 5, size=(10, 2))
        lat = t.subscriber_latencies(subs)
        assert np.allclose(t.shortest_latencies(subs), lat.min(axis=0))

    def test_best_completion_at_root_matches_shortest(self):
        t = star_tree(4)
        subs = np.random.default_rng(1).uniform(-5, 5, size=(7, 2))
        best = t.best_completion(0, subs)
        assert np.allclose(best, t.shortest_latencies(subs))

    def test_best_completion_at_leaf_is_distance(self):
        t = chain_tree()
        subs = np.array([[6.0, 4.0]])
        assert t.best_completion(3, subs)[0] == pytest.approx(4.0)

    def test_best_completion_brute_force(self):
        rng = np.random.default_rng(2)
        brokers = rng.uniform(0, 10, size=(15, 3))
        t = build_hierarchical_tree(np.zeros(3), brokers, 3, rng)
        subs = rng.uniform(0, 10, size=(5, 3))
        for node in range(t.num_nodes):
            rows = t.subtree_leaf_rows(node)
            if len(rows) == 0:
                continue
            leaf_nodes = t.leaves[rows]
            expected = np.min(
                (t.down_latency[leaf_nodes] - t.down_latency[node])[:, None]
                + pairwise_distances(t.positions[leaf_nodes], subs), axis=0)
            assert np.allclose(t.best_completion(node, subs), expected)

    def test_subtree_leaf_rows_partition_at_root(self):
        rng = np.random.default_rng(3)
        brokers = rng.uniform(0, 10, size=(20, 2))
        t = build_hierarchical_tree(np.zeros(2), brokers, 4, rng)
        root_rows = set(t.subtree_leaf_rows(0).tolist())
        assert root_rows == set(range(t.num_leaves))
        child_rows = [set(t.subtree_leaf_rows(c).tolist()) for c in t.children(0)]
        assert set().union(*child_rows) == root_rows
        total = sum(len(s) for s in child_rows)
        assert total == t.num_leaves  # disjoint

    def test_leaf_row_roundtrip(self):
        t = star_tree(5)
        for row, node in enumerate(t.leaves):
            assert t.leaf_row(int(node)) == row

    def test_leaf_rows_gathers_in_any_order(self):
        rng = np.random.default_rng(4)
        t = build_hierarchical_tree(np.zeros(2), rng.uniform(0, 10, (20, 2)),
                                    3, rng)
        nodes = rng.permutation(np.repeat(t.leaves, 2))
        assert t.leaf_rows(nodes).tolist() == [t.leaf_row(int(v)) for v in nodes]
        assert t.leaf_rows(np.array([], dtype=int)).shape == (0,)

    @pytest.mark.parametrize("node", [0, 1, 2, -1, 4])
    def test_non_leaf_ids_raise(self, node):
        t = chain_tree()  # nodes 0-2 are not leaves; -1 and 4 are not nodes
        with pytest.raises(KeyError):
            t.leaf_row(node)
        with pytest.raises(KeyError):
            t.leaf_rows(np.array([3, node]))

    def test_leaf_mask_flags_only_leaves(self):
        t = chain_tree()  # node 3 is the only leaf
        nodes = np.array([3, 0, 1, 2, -1, 4, 3, 10**9])
        assert t.leaf_mask(nodes).tolist() == [
            True, False, False, False, False, False, True, False]
        assert t.leaf_mask(np.array([], dtype=int)).shape == (0,)


class TestBuilders:
    def test_one_level_all_leaves(self):
        brokers = np.random.default_rng(0).uniform(size=(10, 4))
        t = build_one_level_tree(np.zeros(4), brokers)
        assert t.num_leaves == 10
        assert t.height == 1
        assert np.allclose(t.positions[1:], brokers)

    def test_one_level_empty_rejected(self):
        with pytest.raises(ValueError):
            build_one_level_tree(np.zeros(2), np.empty((0, 2)))

    def test_hierarchical_out_degree_bound(self):
        rng = np.random.default_rng(1)
        brokers = rng.uniform(0, 100, size=(60, 5))
        t = build_hierarchical_tree(np.zeros(5), brokers, 6, rng)
        for node in range(t.num_nodes):
            assert len(t.children(node)) <= 6

    def test_hierarchical_contains_all_brokers(self):
        rng = np.random.default_rng(2)
        brokers = rng.uniform(0, 100, size=(37, 3))
        t = build_hierarchical_tree(np.zeros(3), brokers, 5, rng)
        assert t.num_brokers == 37

    def test_hierarchical_small_input_one_level(self):
        rng = np.random.default_rng(3)
        brokers = rng.uniform(size=(4, 2))
        t = build_hierarchical_tree(np.zeros(2), brokers, 8, rng)
        assert t.height == 1

    def test_hierarchical_bad_degree(self):
        with pytest.raises(ValueError):
            build_hierarchical_tree(np.zeros(2), np.zeros((3, 2)), 1,
                                    np.random.default_rng(0))
