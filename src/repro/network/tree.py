"""The dissemination tree ``T``: publisher root plus broker nodes.

Node 0 is always the publisher.  Every other node is a broker; brokers with
no children are *leaf brokers*, the only valid targets of a subscriber
assignment.  Edge latency is the Euclidean distance between the endpoint
positions in the network space.

The class precomputes the quantities every algorithm in the library needs:

* ``down_latency[v]`` — path latency from the publisher to node ``v``;
* ``subtree_leaves[v]`` — leaf brokers underneath ``v`` (including ``v``
  itself when it is a leaf);
* shortest achievable publisher-to-subscriber latencies ``Delta_j`` and
  per-node *best completion* latencies used by the multi-level algorithm.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .space import pairwise_distances

__all__ = ["BrokerTree"]

PUBLISHER = 0


class BrokerTree:
    """An immutable rooted tree over network points.

    Parameters
    ----------
    positions:
        ``(n_nodes, d)`` array of network coordinates; row 0 is the
        publisher.
    parents:
        ``(n_nodes,)`` integer array; ``parents[0] == -1`` and
        ``parents[v]`` is the parent node of broker ``v``.
    """

    def __init__(self, positions: np.ndarray, parents: Sequence[int] | np.ndarray):
        pos = np.ascontiguousarray(positions, dtype=float)
        par = np.asarray(parents, dtype=int)
        if pos.ndim != 2:
            raise ValueError("positions must have shape (n_nodes, d)")
        if par.shape != (pos.shape[0],):
            raise ValueError("parents must have one entry per node")
        if pos.shape[0] < 2:
            raise ValueError("a tree needs the publisher and at least one broker")
        if par[PUBLISHER] != -1:
            raise ValueError("node 0 must be the publisher root (parent -1)")
        if np.any(par[1:] < 0) or np.any(par[1:] >= pos.shape[0]):
            raise ValueError("broker parents must be valid node indices")

        self._positions = pos
        self._parents = par
        self._children: list[list[int]] = [[] for _ in range(pos.shape[0])]
        for v in range(1, pos.shape[0]):
            self._children[par[v]].append(v)

        self._root_first_order = tuple(self._topological_order())
        self._down_latency = self._compute_down_latencies()
        self._leaves = np.array(
            [v for v in range(1, pos.shape[0]) if not self._children[v]], dtype=int)
        if len(self._leaves) == 0:
            raise ValueError("tree has no leaf brokers")
        # Row of each node in the leaves order; -1 for the publisher and
        # interior brokers.
        self._row_of_node = np.full(pos.shape[0], -1, dtype=int)
        self._row_of_node[self._leaves] = np.arange(len(self._leaves))
        self._subtree_leaf_rows = self._compute_subtree_leaves()

        pos.setflags(write=False)
        par.setflags(write=False)
        self._down_latency.setflags(write=False)
        self._leaves.setflags(write=False)

    def _compute_down_latencies(self) -> np.ndarray:
        latency = np.zeros(self.num_nodes)
        for v in self._root_first_order[1:]:
            p = self._parents[v]
            latency[v] = latency[p] + float(
                np.linalg.norm(self._positions[v] - self._positions[p]))
        return latency

    def _topological_order(self) -> list[int]:
        """Nodes ordered root-first; also validates acyclicity/connectivity."""
        order = [PUBLISHER]
        seen = {PUBLISHER}
        stack = [PUBLISHER]
        while stack:
            v = stack.pop()
            for child in self._children[v]:
                if child in seen:
                    raise ValueError("parents array contains a cycle")
                seen.add(child)
                order.append(child)
                stack.append(child)
        if len(order) != self.num_nodes:
            raise ValueError("tree is not connected: unreachable nodes exist")
        return order

    def _compute_subtree_leaves(self) -> list[np.ndarray]:
        rows: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for row, leaf in enumerate(self._leaves):
            v = int(leaf)
            while v != -1:
                rows[v].append(row)
                v = int(self._parents[v])
        return [np.array(r, dtype=int) for r in rows]

    # -- basic accessors ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._positions.shape[0]

    @property
    def num_brokers(self) -> int:
        return self.num_nodes - 1

    @property
    def network_dim(self) -> int:
        return self._positions.shape[1]

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def publisher_position(self) -> np.ndarray:
        return self._positions[PUBLISHER]

    @property
    def parents(self) -> np.ndarray:
        return self._parents

    @property
    def root_first_order(self) -> tuple[int, ...]:
        """Every node id, each parent before its children (publisher first)."""
        return self._root_first_order

    def children(self, node: int) -> list[int]:
        return list(self._children[node])

    @property
    def leaves(self) -> np.ndarray:
        """Leaf broker node ids, in a fixed canonical order."""
        return self._leaves

    @property
    def num_leaves(self) -> int:
        return len(self._leaves)

    def leaf_row(self, node: int) -> int:
        """Index of a leaf node in the canonical :attr:`leaves` order."""
        node = int(node)
        row = int(self._row_of_node[node]) if 0 <= node < self.num_nodes else -1
        if row < 0:
            raise KeyError(f"node {node} is not a leaf broker")
        return row

    def _rows_or_minus_one(self, nodes: np.ndarray) -> np.ndarray:
        """Leaf row of every id in ``nodes``; -1 for any other id."""
        nodes = np.asarray(nodes, dtype=int)
        inside = (nodes >= 0) & (nodes < self.num_nodes)
        return self._row_of_node[np.where(inside, nodes, PUBLISHER)]

    def leaf_rows(self, nodes: np.ndarray) -> np.ndarray:
        """:meth:`leaf_row` of every id in ``nodes``, in one gather."""
        nodes = np.asarray(nodes, dtype=int)
        rows = self._rows_or_minus_one(nodes)
        if (rows < 0).any():
            bad = int(nodes[rows < 0].flat[0])
            raise KeyError(f"node {bad} is not a leaf broker")
        return rows

    def leaf_mask(self, nodes: np.ndarray) -> np.ndarray:
        """Which ids in ``nodes`` are leaf brokers (any integer is allowed)."""
        return self._rows_or_minus_one(nodes) >= 0

    def is_leaf(self, node: int) -> bool:
        return node != PUBLISHER and not self._children[node]

    @property
    def down_latency(self) -> np.ndarray:
        """Path latency from the publisher to each node."""
        return self._down_latency

    def subtree_leaf_rows(self, node: int) -> np.ndarray:
        """Rows (into :attr:`leaves`) of the leaf brokers under ``node``."""
        return self._subtree_leaf_rows[node]

    def path_to_root(self, node: int) -> list[int]:
        """Nodes from ``node`` up to and including the publisher."""
        path = [node]
        while path[-1] != PUBLISHER:
            path.append(int(self._parents[path[-1]]))
        return path

    def depth(self, node: int) -> int:
        return len(self.path_to_root(node)) - 1

    @property
    def height(self) -> int:
        return max(self.depth(int(v)) for v in self._leaves)

    # -- latency computations ------------------------------------------------

    def leaf_positions(self) -> np.ndarray:
        return self._positions[self._leaves]

    def subscriber_latencies(self, subscriber_points: np.ndarray) -> np.ndarray:
        """Matrix ``L[i, j]``: full path latency publisher -> leaf ``i`` -> subscriber ``j``.

        Row order follows :attr:`leaves`.
        """
        last_hop = pairwise_distances(self.leaf_positions(), subscriber_points)
        return self._down_latency[self._leaves][:, None] + last_hop

    def shortest_latencies(self, subscriber_points: np.ndarray) -> np.ndarray:
        """``Delta_j``: the best achievable latency to each subscriber through T."""
        return self.subscriber_latencies(subscriber_points).min(axis=0)

    def best_completion(self, node: int, subscriber_points: np.ndarray) -> np.ndarray:
        """Best achievable remaining latency from ``node`` to each subscriber.

        ``min over leaves L under node of [lat(node -> L) + d(L, S_j)]``;
        the multi-level algorithm uses ``down_latency[node] + best_completion``
        as the optimistic full-path latency when routing through ``node``.
        """
        rows = self._subtree_leaf_rows[node]
        if len(rows) == 0:
            raise ValueError(f"node {node} has no leaves beneath it")
        leaf_nodes = self._leaves[rows]
        descent = self._down_latency[leaf_nodes] - self._down_latency[node]
        last_hop = pairwise_distances(self._positions[leaf_nodes], subscriber_points)
        return (descent[:, None] + last_hop).min(axis=0)

    def __repr__(self) -> str:
        return (f"BrokerTree(nodes={self.num_nodes}, leaves={self.num_leaves}, "
                f"height={self.height}, dim={self.network_dim})")
