"""Per-item loop forms of SLP's array kernels, kept as test references.

Each function here is the loop body the array form in ``src/`` replaced,
kept verbatim apart from one deliberate change: ``kmeans_reference``
re-seeds empty clusters with the fixed rule (a point already moved this
iteration, or a cluster's last point, is never taken), since the old
rule could leave a cluster empty.  The identity tests assert that the
array forms return bit-identical floats, labels and violation lists.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import SAProblem, SASolution
from repro.geometry import RectSet
from repro.geometry.clustering import _kmeans_plus_plus
from repro.geometry.meb import meb_of_subset
from repro.network.tree import PUBLISHER
from repro.pubsub.filters import Filter
from repro.verify.invariants import (
    _LATENCY_RTOL,
    CHECK_LATENCY,
    CHECK_NESTING,
    Violation,
)


def kmeans_reference(points: np.ndarray, k: int, rng: np.random.Generator,
                     max_iterations: int = 50) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    k = min(k, n)

    centers = _kmeans_plus_plus(pts, k, rng)
    labels = np.zeros(n, dtype=int)
    diff = np.empty((n, k, pts.shape[1]))
    for _ in range(max_iterations):
        np.subtract(pts[:, None, :], centers[None, :, :], out=diff)
        np.multiply(diff, diff, out=diff)
        distances = np.sqrt(np.add.reduce(diff, axis=2))
        new_labels = distances.argmin(axis=1)

        sizes = np.bincount(new_labels, minlength=k)
        moved = np.zeros(n, dtype=bool)
        for cluster in range(k):
            if sizes[cluster] == 0:
                best, farthest = -np.inf, -1
                for i in range(n):
                    if moved[i] or sizes[new_labels[i]] == 1:
                        continue
                    if distances[i, new_labels[i]] > best:
                        best, farthest = distances[i, new_labels[i]], i
                sizes[new_labels[farthest]] -= 1
                sizes[cluster] = 1
                new_labels[farthest] = cluster
                moved[farthest] = True
                centers[cluster] = pts[farthest]

        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for cluster in range(k):
            mask = labels == cluster
            if mask.any():
                centers[cluster] = pts[mask].mean(axis=0)
    return labels, centers


def cluster_rects_to_mebs_reference(rects: RectSet, k: int,
                                    rng: np.random.Generator,
                                    features: np.ndarray | None = None
                                    ) -> tuple[RectSet, np.ndarray]:
    if features is None:
        features = np.hstack([rects.lo, rects.hi])
    labels, _ = kmeans_reference(features, k, rng)

    unique = np.unique(labels)
    remap = {cluster: row for row, cluster in enumerate(unique)}
    lo = np.empty((len(unique), rects.dim))
    hi = np.empty((len(unique), rects.dim))
    for cluster, row in remap.items():
        mask = labels == cluster
        lo[row] = rects.lo[mask].min(axis=0)
        hi[row] = rects.hi[mask].max(axis=0)
    mapped = np.array([remap[c] for c in labels], dtype=int)
    return RectSet(lo, hi, validate=False), mapped


def alpha_meb_cover_reference(rects: RectSet, alpha: int,
                              rng: np.random.Generator,
                              refinement_passes: int = 2) -> RectSet:
    if len(rects) <= alpha:
        return rects

    mebs, labels = cluster_rects_to_mebs_reference(rects, alpha, rng)
    groups = labels.copy()
    group_count = len(mebs)

    for _ in range(refinement_passes):
        changed = False
        group_lo = np.full((group_count, rects.dim), np.inf)
        group_hi = np.full((group_count, rects.dim), -np.inf)
        for g in range(group_count):
            mask = groups == g
            if mask.any():
                group_lo[g] = rects.lo[mask].min(axis=0)
                group_hi[g] = rects.hi[mask].max(axis=0)
        for i in range(len(rects)):
            cand_lo = np.minimum(group_lo, rects.lo[i])
            cand_hi = np.maximum(group_hi, rects.hi[i])
            enlarged = np.prod(cand_hi - cand_lo, axis=1)
            base = np.prod(np.maximum(group_hi - group_lo, 0.0), axis=1)
            base[~np.isfinite(base)] = 0.0
            cost = enlarged - base
            best = int(cost.argmin())
            if best != groups[i]:
                groups[i] = best
                changed = True
        if not changed:
            break

    occupied = [g for g in range(group_count) if np.any(groups == g)]
    covers = [meb_of_subset(rects, groups == g) for g in occupied]
    return RectSet.from_rects(covers)


def slot_costs_reference(lo: np.ndarray, hi: np.ndarray, count: np.ndarray,
                         volume: np.ndarray, alpha: int, targets: np.ndarray,
                         rect_lo: np.ndarray, rect_hi: np.ndarray
                         ) -> np.ndarray:
    """``_SlotState.costs`` with its used/unused slot masks."""
    slot_lo = lo[targets]
    slot_hi = hi[targets]
    counts = count[targets]
    used = np.arange(alpha)[None, :] < counts[:, None]
    grown_lo = np.minimum(slot_lo, rect_lo[None, None, :])
    grown_hi = np.maximum(slot_hi, rect_hi[None, None, :])
    old = np.where(used, volume[targets], 0.0)
    new = np.prod(grown_hi - grown_lo, axis=2)
    enlargement = np.where(used, new - old, np.inf)
    best = enlargement.min(axis=1)
    rect_volume = float(np.prod(rect_hi - rect_lo))
    open_cost = np.where(counts < alpha, rect_volume, np.inf)
    return np.minimum(best, open_cost)


def check_nesting_reference(problem: SAProblem, solution: SASolution,
                            assignment: np.ndarray, valid: np.ndarray,
                            out: list[Violation]) -> None:
    for j in np.flatnonzero(valid):
        leaf = int(assignment[j])
        leaf_filter = solution.filters.get(leaf)
        if leaf_filter is None:
            out.append(Violation(CHECK_NESTING, f"broker {leaf}",
                                 "has assigned subscribers but no filter"))
        elif not leaf_filter.contains_subscription(problem.subscriptions.rect(int(j))):
            out.append(Violation(
                CHECK_NESTING, f"subscriber {int(j)}",
                f"subscription not covered by the filter of leaf {leaf}"))

    tree = problem.tree
    for node in range(1, tree.num_nodes):
        parent = int(tree.parents[node])
        if parent == PUBLISHER:
            continue
        child_filter = solution.filters.get(node)
        if child_filter is None or child_filter.is_empty():
            continue
        parent_filter = solution.filters.get(parent)
        if parent_filter is None or not parent_filter.covers_filter(child_filter):
            out.append(Violation(
                CHECK_NESTING, f"broker {node}",
                f"filter not nested inside the filter of parent {parent}"))


def check_latency_reference(problem: SAProblem, assignment: np.ndarray,
                            valid: np.ndarray, out: list[Violation]) -> float:
    worst = 0.0
    for j in np.flatnonzero(valid):
        row = problem.tree.leaf_row(int(assignment[j]))
        used = float(problem.leaf_latency[row, j])
        budget = float(problem.latency_budgets[j])
        base = float(problem.shortest_latency[j])
        delay = used / base - 1.0 if base > 0 else 0.0
        worst = max(worst, delay)
        if used > budget * (1.0 + _LATENCY_RTOL):
            out.append(Violation(
                CHECK_LATENCY, f"subscriber {int(j)}",
                f"path latency via leaf {int(assignment[j])} exceeds the "
                f"budget (delay {delay:.4f} vs D={problem.params.max_delay})",
                measured=used, limit=budget))
    return worst


class TreeFilterStateReference:
    """The greedy filter state as two walks: ``path_costs`` costs every
    candidate, then ``commit`` walks the winner's chain again."""

    def __init__(self, problem: SAProblem) -> None:
        tree = problem.tree
        alpha = problem.params.alpha
        dim = problem.event_dim
        self.alpha = alpha
        self.lo = np.full((tree.num_nodes, alpha, dim), np.inf)
        self.hi = np.full((tree.num_nodes, alpha, dim), -np.inf)
        self.count = np.zeros(tree.num_nodes, dtype=int)

        # Ancestor chains per leaf row, padded with -1 at the top; chains
        # exclude the publisher (node 0), which filters everything trivially.
        chains = []
        for leaf in tree.leaves:
            path = [v for v in tree.path_to_root(int(leaf)) if v != 0]
            chains.append(path)  # leaf first, then ancestors upward
        self.max_depth = max(len(c) for c in chains)
        self.leaf_chains = np.full((len(chains), self.max_depth), -1, dtype=int)
        for row, chain in enumerate(chains):
            self.leaf_chains[row, :len(chain)] = chain

    def _slot_enlargements(self, nodes: np.ndarray, rect_lo: np.ndarray,
                           rect_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                         np.ndarray, np.ndarray]:
        """Least-enlargement incorporation of one rect per node.

        ``nodes`` is a vector of node ids; ``rect_lo``/``rect_hi`` have shape
        ``(k, d)`` giving the rectangle to incorporate at each node.  Returns
        ``(cost, slot, grown_lo, grown_hi, contained)`` per node, where
        ``slot == -1`` means "open a fresh slot" and ``contained`` flags rows
        whose rect was already inside an existing slot (no state change, so
        ancestors are guaranteed to nest it too).
        """
        slot_lo = self.lo[nodes]                        # (k, alpha, d)
        slot_hi = self.hi[nodes]
        counts = self.count[nodes]                      # (k,)
        k, alpha, dim = slot_lo.shape

        used = np.arange(alpha)[None, :] < counts[:, None]          # (k, alpha)
        contains = (np.all(slot_lo <= rect_lo[:, None, :], axis=2)
                    & np.all(rect_hi[:, None, :] <= slot_hi, axis=2)
                    & used)

        grown_slot_lo = np.minimum(slot_lo, rect_lo[:, None, :])
        grown_slot_hi = np.maximum(slot_hi, rect_hi[:, None, :])
        old_volume = np.where(used, np.prod(np.maximum(slot_hi - slot_lo, 0.0),
                                            axis=2), 0.0)
        new_volume = np.prod(grown_slot_hi - grown_slot_lo, axis=2)
        enlargement = np.where(used, new_volume - old_volume, np.inf)
        enlargement = np.where(contains, 0.0, enlargement)

        best_slot = enlargement.argmin(axis=1)                        # (k,)
        best_cost = enlargement[np.arange(k), best_slot]

        rect_volume = np.prod(rect_hi - rect_lo, axis=1)
        can_open = counts < alpha
        open_better = can_open & (rect_volume < best_cost)
        no_used_slot = counts == 0

        cost = np.where(open_better | no_used_slot,
                        np.where(can_open, rect_volume, np.inf), best_cost)
        slot = np.where(open_better | no_used_slot, -1, best_slot)

        grown_lo = np.where((slot == -1)[:, None], rect_lo,
                            grown_slot_lo[np.arange(k), np.maximum(slot, 0)])
        grown_hi = np.where((slot == -1)[:, None], rect_hi,
                            grown_slot_hi[np.arange(k), np.maximum(slot, 0)])
        # When a used slot already contains the rect, the slot does not grow.
        contained = contains[np.arange(k), np.maximum(slot, 0)] & (slot >= 0)
        grown_lo = np.where(contained[:, None],
                            slot_lo[np.arange(k), np.maximum(slot, 0)], grown_lo)
        grown_hi = np.where(contained[:, None],
                            slot_hi[np.arange(k), np.maximum(slot, 0)], grown_hi)
        return cost, slot, grown_lo, grown_hi, contained

    def path_costs(self, leaf_rows: np.ndarray, sub_lo: np.ndarray,
                   sub_hi: np.ndarray) -> np.ndarray:
        """Total enlargement along each candidate leaf's path for one subscription."""
        k = len(leaf_rows)
        total = np.zeros(k)
        rect_lo = np.broadcast_to(sub_lo, (k, sub_lo.shape[0])).copy()
        rect_hi = np.broadcast_to(sub_hi, (k, sub_hi.shape[0])).copy()
        active = np.ones(k, dtype=bool)
        for level in range(self.max_depth):
            nodes = self.leaf_chains[leaf_rows, level]
            step = active & (nodes >= 0)
            if not step.any():
                break
            cost, _slot, grown_lo, grown_hi, contained = self._slot_enlargements(
                nodes[step], rect_lo[step], rect_hi[step])
            total[step] += cost
            # A rect already inside an existing slot changes nothing, and the
            # nesting invariant guarantees every ancestor also contains that
            # slot — stop propagating for those rows.
            rect_lo[step] = grown_lo
            rect_hi[step] = grown_hi
            still = np.flatnonzero(step)
            active[still[contained]] = False
        return total

    def commit(self, leaf_row: int, sub_lo: np.ndarray, sub_hi: np.ndarray) -> None:
        """Incorporate the subscription along the chosen leaf's path."""
        rect_lo, rect_hi = sub_lo, sub_hi
        for level in range(self.max_depth):
            node = int(self.leaf_chains[leaf_row, level])
            if node < 0:
                break
            _cost, slot, grown_lo, grown_hi, contained = self._slot_enlargements(
                np.array([node]), rect_lo[None, :], rect_hi[None, :])
            chosen = int(slot[0])
            if chosen == -1:
                fresh = self.count[node]
                self.lo[node, fresh] = rect_lo
                self.hi[node, fresh] = rect_hi
                self.count[node] += 1
            elif contained[0]:
                return  # already nested here and hence everywhere above
            else:
                self.lo[node, chosen] = np.minimum(self.lo[node, chosen], rect_lo)
                self.hi[node, chosen] = np.maximum(self.hi[node, chosen], rect_hi)
            rect_lo = grown_lo[0]
            rect_hi = grown_hi[0]

    def load_filters(self, filters: dict[int, Filter]) -> None:
        """Reset the slot state from explicit per-node filters.

        Used by the dynamic manager after a re-optimization: subsequent
        online arrivals grow the optimizer's filters instead of stale
        greedy ones.  Filters larger than ``alpha`` are truncated to their
        first ``alpha`` rectangles (callers pass adjusted filters, which
        respect the bound by construction).
        """
        self.lo.fill(np.inf)
        self.hi.fill(-np.inf)
        self.count.fill(0)
        for node, filt in filters.items():
            rects = filt.rects
            n = min(len(rects), self.alpha)
            if n:
                self.lo[node, :n] = rects.lo[:n]
                self.hi[node, :n] = rects.hi[:n]
                self.count[node] = n


def greedy_assign_one_reference(problem: SAProblem,
                                state: TreeFilterStateReference,
                                loads: np.ndarray, j: int, respect_latency: bool,
                                lbf_stages: tuple[float, ...],
                                population: int | None = None,
                                allowed: np.ndarray | None = None
                                ) -> tuple[int, bool]:
    """Assign subscriber ``j``; returns (leaf_row, load_cap_respected).

    ``population`` is the subscriber count the load caps are relative to;
    it defaults to the full problem size (offline use) and is the current
    active count in the dynamic manager.  ``allowed`` optionally restricts
    the candidate leaf rows (the runtime's failover repair excludes
    unreachable brokers); it is a hard constraint — even the best-effort
    fallback stays inside it.
    """
    m = population if population is not None else problem.num_subscribers
    if respect_latency:
        latency_ok = problem.feasible_leaf[:, j]
    else:
        latency_ok = np.ones(problem.num_leaf_brokers, dtype=bool)
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if not allowed.any():
            raise ValueError("no allowed leaf brokers to assign to")
        latency_ok = latency_ok & allowed

    candidate_rows = np.empty(0, dtype=int)
    cap_respected = True
    for stage, lbf in enumerate(lbf_stages):
        caps = lbf * problem.kappas * m
        open_mask = (loads + 1) <= caps + 1e-9
        candidate_rows = np.flatnonzero(latency_ok & open_mask)
        if len(candidate_rows):
            break
    if not len(candidate_rows):
        # Best effort: ignore load caps entirely (paper: "we report the
        # best-effort solutions found by Gr").
        cap_respected = False
        candidate_rows = np.flatnonzero(latency_ok)
        if not len(candidate_rows):
            candidate_rows = (np.flatnonzero(allowed) if allowed is not None
                              else np.arange(problem.num_leaf_brokers))

    sub_lo = problem.subscriptions.lo[j]
    sub_hi = problem.subscriptions.hi[j]
    costs = state.path_costs(candidate_rows, sub_lo, sub_hi)
    best_cost = costs.min()
    near_best = candidate_rows[costs <= best_cost + 1e-12]
    if len(near_best) > 1:
        # Tie-break: least relative load m_i / (kappa_i m).
        relative = loads[near_best] / (problem.kappas[near_best] * m)
        winner = int(near_best[relative.argmin()])
    else:
        winner = int(near_best[0])
    return winner, cap_respected
