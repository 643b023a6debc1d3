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
