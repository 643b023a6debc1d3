"""Dinic's maximum-flow algorithm on integer-capacity graphs.

No library code calls it: every assignment routes with
:mod:`repro.core.slp.assign_flow`.  It stays for one reason only: the
repository benchmark (``perfbench/layers.py``, ``install_solver``)
imports it to trace a ``flow.maxflow`` span.  Until that import goes,
the tests use it as an independent max-flow oracle.

Pure Python, adjacency lists of edge ids, BFS level graph + DFS blocking
flow with current-arc pointers; the residual network persists, so raised
capacities resume from the flow found so far.
"""

from __future__ import annotations

from collections import deque

__all__ = ["Dinic"]

_INF = float("inf")


class Dinic:
    """A max-flow solver over a mutable residual network."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError("a flow network needs at least two nodes")
        self.num_nodes = num_nodes
        # Parallel edge arrays; edge 2k and 2k+1 are a forward/backward pair.
        self._to: list[int] = []
        self._cap: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge and return its id (for later capacity updates)."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError("edge endpoints out of range")
        edge_id = len(self._to)
        self._to.append(v)
        self._cap.append(capacity)
        self._adj[u].append(edge_id)
        self._to.append(u)
        self._cap.append(0)
        self._adj[v].append(edge_id + 1)
        return edge_id

    def set_capacity(self, edge_id: int, capacity: int) -> None:
        """Raise (or lower, if unused) an edge's capacity.

        The residual capacity becomes ``capacity - flow``; lowering below
        the current flow would create a negative residual and is rejected.
        """
        flow = self.edge_flow(edge_id)
        if capacity < flow:
            raise ValueError("cannot reduce capacity below the flow already routed")
        self._cap[edge_id] = capacity - flow
        # Backward edge keeps its accumulated flow; nothing else changes.

    def edge_flow(self, edge_id: int) -> int:
        """Flow currently routed on a forward edge (= its backward residual)."""
        return self._cap[edge_id ^ 1]

    def _bfs_levels(self, source: int, sink: int) -> list[int] | None:
        levels = [-1] * self.num_nodes
        levels[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for edge_id in self._adj[u]:
                v = self._to[edge_id]
                if self._cap[edge_id] > 0 and levels[v] < 0:
                    levels[v] = levels[u] + 1
                    queue.append(v)
        return levels if levels[sink] >= 0 else None

    def _blocking_flow(self, source: int, sink: int, levels: list[int]) -> int:
        iters = [0] * self.num_nodes
        total = 0
        # Iterative DFS: stack of (node, edge pushed to reach it).
        while True:
            path: list[int] = []
            u = source
            while True:
                if u == sink:
                    # Push the bottleneck along the path.
                    pushed = min(self._cap[e] for e in path)
                    for e in path:
                        self._cap[e] -= pushed
                        self._cap[e ^ 1] += pushed
                    total += pushed
                    # Retreat to the first saturated edge on the path.
                    for index, e in enumerate(path):
                        if self._cap[e] == 0:
                            path = path[:index]
                            break
                    u = self._to[path[-1]] if path else source
                    continue
                advanced = False
                while iters[u] < len(self._adj[u]):
                    edge_id = self._adj[u][iters[u]]
                    v = self._to[edge_id]
                    if self._cap[edge_id] > 0 and levels[v] == levels[u] + 1:
                        path.append(edge_id)
                        u = v
                        advanced = True
                        break
                    iters[u] += 1
                if advanced:
                    continue
                if u == source:
                    return total
                levels[u] = -1  # dead end; prune
                u_edge = path.pop()
                u = self._to[u_edge ^ 1]
                iters[u] += 1

    def max_flow(self, source: int, sink: int) -> int:
        """Augment to a maximum flow; returns the *additional* flow routed.

        Because the residual network persists, calling this after raising
        capacities continues from the previous flow.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        added = 0
        while True:
            levels = self._bfs_levels(source, sink)
            if levels is None:
                return added
            added += self._blocking_flow(source, sink, levels)
