"""Event-to-subscription matching.

Leaf brokers must find, for each incoming event, the assigned subscribers
whose subscription boxes contain the event point.  Three matchers share
the :class:`Matcher` protocol (``match_point`` for one event,
``match_points`` for a batched event column):

* :class:`BruteForceMatcher` — vectorized scan of every subscription;
  the oracle used in tests.
* :class:`GridMatcher` — a uniform grid over the event domain; each cell
  stores the subscriptions intersecting it, so a lookup only scans one
  cell's list.  This is the standard content-based matching index for
  rectangle subscriptions and keeps the dissemination simulator fast.
  Blocks too small to amortise its per-cell loop are answered by the
  brute scan instead (:attr:`GridMatcher.scan_below`).
* :class:`~repro.pubsub.rtree.RTreeMatcher` — an STR-packed R-tree that
  stays balanced under skewed subscription populations.

:func:`best_matcher` picks among them with a deterministic heuristic, so
the batch event plane (simulator, runtime epoch mode, serve broker) can
ask for "the right index" instead of hard-coding one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from ..geometry import Rect, RectSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .rtree import RTreeMatcher  # noqa: F401

__all__ = ["Matcher", "BruteForceMatcher", "GridMatcher", "best_matcher"]

#: Subscription-event containment tests a brute scan runs in the time
#: :meth:`GridMatcher.match_points` spends on one occupied cell (~20 µs
#: against ~4.7 ns, measured on Fig-7 populations of 750-3,000
#: subscriptions under a 16x16 grid).
_SCAN_TESTS_PER_CELL = 4096

# best_matcher's heuristic (see its docstring).
_RESOLUTION = 16
_BRUTE_FORCE_MAX = 64
_GRID_CELL_BUDGET = 8.0
_SKEW_CAP = 0.25


@runtime_checkable
class Matcher(Protocol):
    """The matching-index contract shared by all event-plane consumers.

    Implementations must agree with :class:`BruteForceMatcher` exactly
    (the differential oracle in :mod:`repro.verify.oracles` enforces
    this), including on boundary-touching points, empty subscription
    sets, and zero-event batches.
    """

    def match_point(self, point: np.ndarray) -> np.ndarray:
        """Ids of subscriptions containing the event point (sorted)."""
        ...

    def match_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean matrix ``(num_subscriptions, num_events)``."""
        ...


class BruteForceMatcher:
    """Match by scanning all subscriptions (exact, O(n) per event)."""

    def __init__(self, subscriptions: RectSet):
        self._subs = subscriptions

    def match_point(self, point: np.ndarray) -> np.ndarray:
        """Ids of subscriptions containing the event point."""
        mask = self._subs.contains_points(
            np.asarray(point, dtype=float)[None, :])[:, 0]
        return np.flatnonzero(mask)

    def match_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean matrix ``(num_subscriptions, num_events)``."""
        return self._subs.contains_points(points)


class GridMatcher:
    """Match via a uniform grid index over the event domain.

    Parameters
    ----------
    subscriptions:
        The subscription boxes to index.
    domain:
        The event domain; events outside it still match correctly (they
        fall into clamped border cells).
    resolution:
        Number of grid cells per axis.

    ``scan_below`` is the block size below which :meth:`match_points`
    scans every subscription instead of probing the cell buckets.
    """

    def __init__(self, subscriptions: RectSet, domain: Rect, resolution: int = 16):
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        self._subs = subscriptions
        self._domain = domain
        self._resolution = resolution
        self._dim = domain.dim
        widths = domain.widths
        if np.any(widths <= 0):
            raise ValueError("domain must have positive extent on every axis")
        self._cell_size = widths / resolution
        # Scan a block of n events when its n * m tests cost less than
        # its min(n, cells) occupied cells (see _SCAN_TESTS_PER_CELL).
        m = len(subscriptions)
        self.scan_below = (
            -(-_SCAN_TESTS_PER_CELL * resolution ** self._dim // m)
            if 0 < m < _SCAN_TESTS_PER_CELL else 0)
        # Row-major strides so batched lookups can flatten cell coords
        # with one matrix product (matches _flatten's digit order).
        self._strides = resolution ** np.arange(self._dim - 1, -1, -1)

        # cells[flat_index] -> ascending ids of the subscriptions whose
        # cell range covers the cell.  Each subscription contributes one
        # (cell, id) pair per covered cell; a stable sort by cell keeps
        # the ids ascending within each bucket.
        lo_cells = self._cell_coords(subscriptions.lo)
        spans = self._cell_coords(subscriptions.hi) - lo_cells + 1
        sizes = spans.prod(axis=1)
        ids = np.repeat(np.arange(len(subscriptions)), sizes)
        offset = np.arange(len(ids)) - np.repeat(np.cumsum(sizes) - sizes,
                                                 sizes)
        flat = np.zeros(len(ids), dtype=int)
        for axis in range(self._dim - 1, -1, -1):
            span = spans[ids, axis]
            flat += (lo_cells[ids, axis] + offset % span) * self._strides[axis]
            offset //= span
        order = np.argsort(flat, kind="stable")
        cells, starts = np.unique(flat[order], return_index=True)
        self._buckets = dict(zip(cells.tolist(),
                                 np.split(ids[order], starts[1:])))

    def _cell_coords(self, points: np.ndarray) -> np.ndarray:
        rel = (np.asarray(points, dtype=float) - self._domain.lo) / self._cell_size
        return np.clip(rel.astype(int), 0, self._resolution - 1)

    def _flatten(self, coords: tuple[int, ...]) -> int:
        flat = 0
        for c in coords:
            flat = flat * self._resolution + int(c)
        return flat

    def match_point(self, point: np.ndarray) -> np.ndarray:
        cell = self._cell_coords(np.asarray(point, dtype=float)[None, :])[0]
        bucket = self._buckets.get(self._flatten(tuple(cell)))
        if bucket is None:
            return np.empty(0, dtype=int)
        candidates = self._subs.take(bucket)
        mask = candidates.contains_points(
            np.asarray(point, dtype=float)[None, :])[:, 0]
        return bucket[mask]

    def match_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean matrix ``(num_subscriptions, num_events)``.

        A block of at least :attr:`scan_below` events is grouped by grid
        cell, so each occupied cell costs one batched containment check
        over its bucket instead of a Python loop over individual events;
        a smaller block is one brute scan of every subscription.
        """
        pts = np.asarray(points, dtype=float)
        if pts.shape[0] < self.scan_below:
            return self._subs.contains_points(pts)
        out = np.zeros((len(self._subs), pts.shape[0]), dtype=bool)
        if pts.shape[0] == 0 or len(self._subs) == 0:
            return out
        flat = self._cell_coords(pts) @ self._strides
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        cuts = (np.flatnonzero(sorted_flat[1:] != sorted_flat[:-1])
                + 1).tolist()
        for start, stop in zip([0, *cuts], [*cuts, len(sorted_flat)]):
            bucket = self._buckets.get(int(sorted_flat[start]))
            if bucket is None:
                continue
            cell_events = order[start:stop]
            mask = self._subs.take(bucket).contains_points(pts[cell_events])
            out[bucket[:, None], cell_events] = mask
        return out


def best_matcher(subscriptions: RectSet,
                 domain: Rect | None = None) -> Matcher:
    """Pick the cheapest matching index for a subscription population.

    The heuristic is deterministic and needs only O(n) vectorized work:

    1. tiny populations (``n <= 64``) — a brute-force scan beats any
       index once build cost is counted;
    2. no usable event domain (``domain`` missing and the subscriptions'
       minimum enclosing box is degenerate on some axis) — the grid
       cannot be built, fall back to the R-tree;
    3. fat subscriptions (on average more than 8 cells of a 16-per-axis
       grid each) — every bucket would hold nearly the whole population,
       so the grid degenerates to brute force with extra memory; use the
       R-tree;
    4. hot-spot skew (more than a quarter of all subscription centers in
       one cell) — one bucket dominates; STR leaves stay balanced;
    5. otherwise the uniform grid wins (its cell-grouped
       ``match_points`` is the fastest batched probe we have).
    """
    from .rtree import RTreeMatcher  # local: avoids an import cycle

    n = len(subscriptions)
    if n <= _BRUTE_FORCE_MAX:
        return BruteForceMatcher(subscriptions)
    if domain is None:
        meb = subscriptions.meb()
        domain = meb if np.all(meb.widths > 0) else None
    elif np.any(domain.widths <= 0):
        domain = None
    if domain is None:
        return RTreeMatcher(subscriptions)

    cell = domain.widths / _RESOLUTION
    spans = (subscriptions.hi - subscriptions.lo) / cell
    cells_per_sub = np.prod(np.minimum(np.floor(spans) + 2, _RESOLUTION),
                            axis=1)
    if float(cells_per_sub.mean()) > _GRID_CELL_BUDGET:
        return RTreeMatcher(subscriptions)

    rel = (subscriptions.centers() - domain.lo) / cell
    coords = np.clip(rel.astype(int), 0, _RESOLUTION - 1)
    strides = _RESOLUTION ** np.arange(domain.dim - 1, -1, -1)
    _, counts = np.unique(coords @ strides, return_counts=True)
    if int(counts.max()) > _SKEW_CAP * n:
        return RTreeMatcher(subscriptions)
    return GridMatcher(subscriptions, domain, resolution=_RESOLUTION)
