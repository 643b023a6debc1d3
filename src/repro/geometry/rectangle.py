"""Axis-aligned rectangles (boxes) in d-dimensional Euclidean space.

Two representations are provided:

* :class:`Rect` — a single immutable box, convenient for algorithm-level
  code and tests.
* :class:`RectSet` — a vectorized collection of boxes backed by two
  ``(n, d)`` numpy arrays.  All hot paths in the library (candidate filter
  generation, greedy enlargement, coverage checks) operate on ``RectSet``.

A box is the product of closed intervals ``[lo_i, hi_i]``; degenerate boxes
(``lo_i == hi_i``) are allowed and have zero volume.  ``lo_i <= hi_i`` is an
invariant enforced at construction time.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["Rect", "RectSet"]


def _as_coords(values: Sequence[float] | np.ndarray) -> np.ndarray:
    coords = np.asarray(values, dtype=float)
    if coords.ndim != 1:
        raise ValueError(f"expected a 1-d coordinate array, got shape {coords.shape}")
    return coords


class Rect:
    """An immutable axis-aligned box ``prod_i [lo_i, hi_i]``."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: Sequence[float] | np.ndarray, hi: Sequence[float] | np.ndarray) -> None:
        lo_arr = _as_coords(lo)
        hi_arr = _as_coords(hi)
        if lo_arr.shape != hi_arr.shape:
            raise ValueError("lo and hi must have the same dimensionality")
        if np.any(lo_arr > hi_arr):
            raise ValueError(f"invalid box: lo {lo_arr} exceeds hi {hi_arr}")
        lo_arr.setflags(write=False)
        hi_arr.setflags(write=False)
        self._lo = lo_arr
        self._hi = hi_arr

    @classmethod
    def from_point(cls, point: Sequence[float] | np.ndarray) -> "Rect":
        """A degenerate box containing exactly one point."""
        return cls(point, point)

    @classmethod
    def from_center(cls, center: Sequence[float] | np.ndarray,
                    widths: Sequence[float] | np.ndarray) -> "Rect":
        """The box centered at ``center`` with side lengths ``widths``."""
        center_arr = _as_coords(center)
        half = _as_coords(widths) / 2.0
        if np.any(half < 0):
            raise ValueError("widths must be non-negative")
        return cls(center_arr - half, center_arr + half)

    @property
    def lo(self) -> np.ndarray:
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        return self._hi

    @property
    def dim(self) -> int:
        return self._lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return (self._lo + self._hi) / 2.0

    @property
    def widths(self) -> np.ndarray:
        return self._hi - self._lo

    def volume(self) -> float:
        """Lebesgue volume; zero for degenerate boxes."""
        return float(np.prod(self._hi - self._lo))

    def contains_point(self, point: Sequence[float] | np.ndarray) -> bool:
        p = _as_coords(point)
        return bool(np.all(self._lo <= p) and np.all(p <= self._hi))

    def contains_rect(self, other: "Rect") -> bool:
        return bool(np.all(self._lo <= other._lo) and np.all(other._hi <= self._hi))

    def intersects(self, other: "Rect") -> bool:
        return bool(np.all(self._lo <= other._hi) and np.all(other._lo <= self._hi))

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlap box, or ``None`` when the boxes are disjoint."""
        lo = np.maximum(self._lo, other._lo)
        hi = np.minimum(self._hi, other._hi)
        if np.any(lo > hi):
            return None
        return Rect(lo, hi)

    def union(self, other: "Rect") -> "Rect":
        """The minimum enclosing box of the two boxes."""
        return Rect(np.minimum(self._lo, other._lo), np.maximum(self._hi, other._hi))

    def enlargement(self, other: "Rect") -> float:
        """Volume increase of growing this box to also enclose ``other``.

        This is the classic R-tree insertion cost
        ``Vol(MEB(self, other)) - Vol(self)``.
        """
        return self.union(other).volume() - self.volume()

    def expand(self, eps: float) -> "Rect":
        """The paper's epsilon-expansion ``(1 + eps) R``.

        Each side of length ``w`` grows by ``eps * w / 2`` on both ends, so
        the expanded side has length ``(1 + eps) w``.  Degenerate sides stay
        degenerate, matching the definition in Section IV-A.2.
        """
        if eps < 0:
            raise ValueError("eps must be non-negative")
        half_growth = eps * (self._hi - self._lo) / 2.0
        return Rect(self._lo - half_growth, self._hi + half_growth)

    def as_tuple(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        return tuple(self._lo), tuple(self._hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return bool(np.array_equal(self._lo, other._lo) and np.array_equal(self._hi, other._hi))

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"Rect(lo={self._lo.tolist()}, hi={self._hi.tolist()})"


class RectSet:
    """A vectorized collection of ``n`` boxes in ``R^d``.

    Backed by ``lo`` and ``hi`` arrays of shape ``(n, d)``.  The arrays are
    owned by the set and marked read-only; derive new sets instead of
    mutating in place.
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, *, validate: bool = True) -> None:
        lo_arr = np.ascontiguousarray(lo, dtype=float)
        hi_arr = np.ascontiguousarray(hi, dtype=float)
        if lo_arr.ndim != 2 or lo_arr.shape != hi_arr.shape:
            raise ValueError("lo and hi must both have shape (n, d)")
        if validate and np.any(lo_arr > hi_arr):
            raise ValueError("invalid boxes: some lo exceeds hi")
        lo_arr.setflags(write=False)
        hi_arr.setflags(write=False)
        self._lo = lo_arr
        self._hi = hi_arr

    @classmethod
    def empty(cls, dim: int) -> "RectSet":
        return cls(np.empty((0, dim)), np.empty((0, dim)))

    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "RectSet":
        rect_list = list(rects)
        if not rect_list:
            raise ValueError("from_rects needs at least one rect; use RectSet.empty")
        lo = np.stack([r.lo for r in rect_list])
        hi = np.stack([r.hi for r in rect_list])
        return cls(lo, hi, validate=False)

    @property
    def lo(self) -> np.ndarray:
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        return self._hi

    @property
    def dim(self) -> int:
        return self._lo.shape[1]

    def __len__(self) -> int:
        return self._lo.shape[0]

    def __iter__(self) -> Iterator[Rect]:
        for i in range(len(self)):
            yield self.rect(i)

    def rect(self, index: int) -> Rect:
        return Rect(self._lo[index], self._hi[index])

    def take(self, indices: np.ndarray | Sequence[int]) -> "RectSet":
        idx = np.asarray(indices)
        return RectSet(self._lo[idx], self._hi[idx], validate=False)

    def centers(self) -> np.ndarray:
        return (self._lo + self._hi) / 2.0

    def widths(self) -> np.ndarray:
        return self._hi - self._lo

    def volumes(self) -> np.ndarray:
        """Per-box volumes, shape ``(n,)``."""
        return np.prod(self._hi - self._lo, axis=1)

    def meb(self) -> Rect:
        """Minimum enclosing box of every box in the set."""
        if len(self) == 0:
            raise ValueError("meb of an empty RectSet is undefined")
        return Rect(self._lo.min(axis=0), self._hi.max(axis=0))

    def contains_rect(self, other: Rect) -> np.ndarray:
        """Boolean mask: which boxes in the set contain ``other``."""
        return np.all(self._lo <= other.lo, axis=1) & np.all(other.hi <= self._hi, axis=1)

    def contained_in_rect(self, outer: Rect) -> np.ndarray:
        """Boolean mask: which boxes in the set lie inside ``outer``."""
        return np.all(outer.lo <= self._lo, axis=1) & np.all(self._hi <= outer.hi, axis=1)

    def containment_matrix(self, inner: "RectSet") -> np.ndarray:
        """Matrix ``M[i, j]`` = does box ``i`` of this set contain box ``j`` of ``inner``.

        Shape ``(len(self), len(inner))``.  Cost is ``O(n * m * d)`` but fully
        vectorized; used to relate candidate filters to subscriptions.
        """
        # Accumulate one (n, m) comparison per axis rather than reducing a
        # materialized (n, m, d) broadcast — same booleans, less memory
        # traffic on the hottest geometry kernel.
        result = (self._lo[:, [0]] <= inner._lo[None, :, 0]) \
            & (inner._hi[None, :, 0] <= self._hi[:, [0]])
        for axis in range(1, self.dim):
            result &= self._lo[:, [axis]] <= inner._lo[None, :, axis]
            result &= inner._hi[None, :, axis] <= self._hi[:, [axis]]
        return result

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Matrix ``M[i, j]`` = does box ``i`` contain point ``j``.

        ``points`` has shape ``(m, d)``; the result has shape ``(n, m)``.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points must have shape (m, {self.dim}), "
                             f"got {pts.shape}")
        # One (n, m) comparison per axis, as in the containment matrix.
        lo, hi = self._lo, self._hi
        result = (lo[:, 0, None] <= pts[:, 0]) & (pts[:, 0] <= hi[:, 0, None])
        for axis in range(1, self.dim):
            result &= lo[:, axis, None] <= pts[:, axis]
            result &= pts[:, axis] <= hi[:, axis, None]
        return result

    def expand(self, eps: float) -> "RectSet":
        """Epsilon-expansion of every box (see :meth:`Rect.expand`)."""
        if eps < 0:
            raise ValueError("eps must be non-negative")
        half_growth = eps * (self._hi - self._lo) / 2.0
        return RectSet(self._lo - half_growth, self._hi + half_growth, validate=False)

    def shrink_to_contents(self, contents: "RectSet") -> "RectSet":
        """Shrink each box to the MEB of the ``contents`` boxes it contains.

        Boxes containing nothing are left unchanged.  This is FilterGen's
        final tightening step.
        """
        matrix = self.containment_matrix(contents)
        new_lo = self._lo.copy()
        new_hi = self._hi.copy()
        occupied = matrix.any(axis=1)
        if occupied.any():
            # min/max over the contained subset, batched over all boxes;
            # identity elements make uncontained entries inert.
            masked_lo = np.where(matrix[:, :, None], contents._lo[None, :, :],
                                 np.inf)
            masked_hi = np.where(matrix[:, :, None], contents._hi[None, :, :],
                                 -np.inf)
            new_lo[occupied] = masked_lo.min(axis=1)[occupied]
            new_hi[occupied] = masked_hi.max(axis=1)[occupied]
        return RectSet(new_lo, new_hi, validate=False)

    def dedupe(self) -> "RectSet":
        """Remove exact duplicate boxes, preserving first-seen order."""
        combined = np.hstack([self._lo, self._hi])
        _, first_indices = np.unique(combined, axis=0, return_index=True)
        return self.take(np.sort(first_indices))

    def concat(self, other: "RectSet") -> "RectSet":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return RectSet(np.vstack([self._lo, other._lo]),
                       np.vstack([self._hi, other._hi]), validate=False)

    def __repr__(self) -> str:
        return f"RectSet(n={len(self)}, dim={self.dim})"
