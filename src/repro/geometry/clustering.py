"""Seeded k-means clustering and box-grouping heuristics.

The paper uses clustering in two places:

* **FilterGen step 1** — subscriptions are clustered in the joint
  (network, event) space into ``k = 5 |B|`` clusters whose MEBs become
  *super-subscriptions* (Section IV-A.3).
* **Filter adjustment** — each broker's assigned subscriptions are grouped
  into at most ``alpha`` clusters whose MEBs form the final filter
  (Section IV-C; exactly minimizing the union volume is NP-hard per Bilò
  et al., so a clustering heuristic is used).

Everything here is deterministic given the caller's ``numpy`` generator;
no global random state is touched.
"""

from __future__ import annotations

import numpy as np

from .rectangle import RectSet

__all__ = ["kmeans", "cluster_rects_to_mebs", "alpha_meb_cover"]


def _kmeans_plus_plus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by D^2 sampling."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = rng.integers(n)
    centers[0] = points[first]
    closest_sq = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen center.
            centers[i:] = points[rng.integers(n, size=k - i)]
            break
        probabilities = closest_sq / total
        choice = rng.choice(n, p=probabilities)
        centers[i] = points[choice]
        dist_sq = np.sum((points - centers[i]) ** 2, axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return centers


def _pairwise_sum_rows(terms: np.ndarray) -> np.ndarray:
    """Sum ``terms`` over axis 0, in place, in ``np.add.reduce``'s order.

    A reduction along a contiguous axis of ``n`` elements adds
    sequentially below 8 elements; from 8 up it keeps 8 interleaved
    accumulators over the largest multiple-of-8 prefix, combines them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and adds the
    rest in order; above 128 it first splits in two halves (the first a
    multiple of 8 long).  Running those steps on whole rows gives, element
    for element, the floats ``np.add.reduce`` gives over the last axis of
    ``np.moveaxis(terms, 0, -1)``.  (The reduction starts from ``0.0``,
    which only turns a ``-0.0`` first term into ``0.0``.)  Returns
    ``terms[0]``, which holds the sums.
    """
    n = len(terms)
    if n < 8:
        for row in range(1, n):
            terms[0] += terms[row]
    elif n <= 128:
        stop = n - n % 8
        for block in range(8, stop, 8):
            terms[:8] += terms[block:block + 8]
        terms[0:8:2] += terms[1:8:2]
        terms[0:8:4] += terms[2:8:4]
        terms[0] += terms[4]
        for row in range(stop, n):
            terms[0] += terms[row]
    else:
        half = n // 2
        half -= half % 8
        _pairwise_sum_rows(terms[:half])
        terms[0] += _pairwise_sum_rows(terms[half:])
    return terms[0]


def _cluster_means(pts: np.ndarray, labels: np.ndarray,
                   sizes: np.ndarray) -> np.ndarray:
    """Per-cluster means, bit-identical to ``pts[labels == c].mean(axis=0)``.

    For ``d >= 2`` that mean sums each coordinate sequentially in input
    order, which one weighted ``np.bincount`` over (cluster, coordinate)
    bins reproduces: it too adds each weight to its bin in input order,
    starting from ``0.0``.  For ``d == 1``
    numpy reduces along the contiguous axis pairwise instead; a
    ``reduceat`` over label-sorted values with a ``0.0`` put in front of
    each cluster reproduces that (``reduceat`` adds the first element to
    the pairwise sum of the rest).  Every cluster must be non-empty.
    """
    k, d = len(sizes), pts.shape[1]
    if d == 1:
        order = np.argsort(labels, kind="stable")
        starts = np.cumsum(sizes) - sizes + np.arange(k)
        padded = np.zeros(len(labels) + k)
        padded[np.delete(np.arange(len(padded)), starts)] = pts[order, 0]
        sums = np.add.reduceat(padded, starts)[:, None]
    else:
        bins = (labels[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(bins, weights=pts.ravel(),
                           minlength=k * d).reshape(k, d)
    return sums / sizes[:, None]


def kmeans(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iterations: int = 50) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding.

    Returns ``(labels, centers)`` where ``labels`` has shape ``(n,)`` with
    values in ``[0, k)`` and every cluster is non-empty (empty clusters are
    re-seeded on the farthest points).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    n = pts.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    k = min(k, n)

    centers = _kmeans_plus_plus(pts, k, rng)
    labels = np.zeros(n, dtype=int)
    columns = pts.T[:, None, :]
    diff = np.empty((pts.shape[1], k, n))
    for _ in range(max_iterations):
        # Assignment step: the floats of ``np.linalg.norm(pts[:, None] -
        # centers[None], axis=2)``, with the coordinate axis first so the
        # sum over it is a handful of whole-array adds.
        np.subtract(columns, centers.T[:, :, None], out=diff)
        np.multiply(diff, diff, out=diff)
        distances = np.sqrt(_pairwise_sum_rows(diff))
        new_labels = distances.argmin(axis=0)

        # Re-seed empty clusters on the points farthest from their
        # centers.  A cluster's last point is never taken, so each
        # re-seed leaves every other cluster non-empty.
        sizes = np.bincount(new_labels, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if len(empty):
            farness = distances[new_labels, np.arange(n)]
            for cluster in empty:
                farthest = int(np.where(sizes[new_labels] > 1, farness,
                                        -np.inf).argmax())
                sizes[new_labels[farthest]] -= 1
                sizes[cluster] = 1
                new_labels[farthest] = cluster
                centers[cluster] = pts[farthest]

        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        centers = _cluster_means(pts, labels, sizes)
    return labels, centers


def cluster_rects_to_mebs(rects: RectSet, k: int, rng: np.random.Generator,
                          features: np.ndarray | None = None) -> tuple[RectSet, np.ndarray]:
    """Cluster boxes and return the per-cluster MEBs.

    ``features`` overrides the clustering coordinates (FilterGen passes a
    joint network/event embedding); by default the box corner coordinates
    ``(lo, hi)`` are used, which keeps similarly-placed, similarly-sized
    boxes together.

    Returns ``(mebs, labels)``.  The MEB set has one box per non-empty
    cluster; ``labels`` maps each input box to its row in ``mebs``.
    """
    if len(rects) == 0:
        raise ValueError("cannot cluster an empty RectSet")
    if features is None:
        features = np.hstack([rects.lo, rects.hi])
    labels, _ = kmeans(features, k, rng)
    unique, mapped = np.unique(labels, return_inverse=True)
    order = np.argsort(mapped, kind="stable")
    starts = np.searchsorted(mapped[order], np.arange(len(unique)))
    lo = np.minimum.reduceat(rects.lo[order], starts, axis=0)
    hi = np.maximum.reduceat(rects.hi[order], starts, axis=0)
    return RectSet(lo, hi, validate=False), mapped


def alpha_meb_cover(rects: RectSet, alpha: int, rng: np.random.Generator,
                    refinement_passes: int = 2) -> RectSet:
    """Cover the boxes with at most ``alpha`` MEBs of small total volume.

    This is the paper's filter-adjustment heuristic: k-means the boxes into
    ``alpha`` groups, take per-group MEBs, then run a few reassignment
    passes moving each box to the group whose MEB it enlarges least.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(rects) == 0:
        raise ValueError("cannot cover an empty RectSet")
    if len(rects) <= alpha:
        return rects

    mebs, groups = cluster_rects_to_mebs(rects, alpha, rng)
    group_count = len(mebs)

    def group_mebs() -> tuple[np.ndarray, np.ndarray]:
        group_lo = np.full((group_count, rects.dim), np.inf)
        group_hi = np.full((group_count, rects.dim), -np.inf)
        np.minimum.at(group_lo, groups, rects.lo)
        np.maximum.at(group_hi, groups, rects.hi)
        return group_lo, group_hi

    for _ in range(refinement_passes):
        # The group MEBs stay fixed within a pass, so every box's best
        # group is independent of the other boxes' moves: one (n, G, d)
        # enlargement and one argmin per pass.
        group_lo, group_hi = group_mebs()
        cand_lo = np.minimum(group_lo[None, :, :], rects.lo[:, None, :])
        cand_hi = np.maximum(group_hi[None, :, :], rects.hi[:, None, :])
        enlarged = np.prod(cand_hi - cand_lo, axis=2)
        base = np.prod(np.maximum(group_hi - group_lo, 0.0), axis=1)
        base[~np.isfinite(base)] = 0.0
        best = (enlarged - base).argmin(axis=1)
        if np.array_equal(best, groups):
            break
        groups = best

    group_lo, group_hi = group_mebs()
    occupied = np.bincount(groups, minlength=group_count) > 0
    return RectSet(group_lo[occupied], group_hi[occupied], validate=False)
