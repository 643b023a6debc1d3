"""Cover-filtered matchers: the shard data plane's matching indexes.

Two compositions of the :class:`~repro.pubsub.matching.Matcher`
protocol, both *exact* (the cover filter is a proven superset of every
guarded subscription, so pre-filtering events against it never changes
an answer — it only skips per-subscription work for events no member
can match):

* :class:`CoverMatcher` — an inner matcher over a subscription subset,
  guarded by the subset's aggregate cover.  Rows are local to the
  subset.
* :class:`ShardedMatcher` — the full population decomposed along a
  :class:`~repro.shard.plan.ShardPlan`: one cover-guarded index per
  shard, answers assembled from disjoint row blocks.  This is what the
  live broker plugs in for ``--shards N`` serving.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Rect, RectSet
from ..pubsub.filters import Filter
from ..pubsub.matching import Matcher, best_matcher
from .plan import ShardPlan, plan_shards

__all__ = ["CoverMatcher", "ShardedMatcher"]


class CoverMatcher:
    """An exact matcher over a subscription subset behind a cover filter."""

    def __init__(self, inner: Matcher, cover: Filter, num_rows: int):
        self._inner = inner
        self._cover = cover
        self._num_rows = int(num_rows)

    def match_point(self, point: np.ndarray) -> np.ndarray:
        if not self._cover.contains_point(point):
            return np.empty(0, dtype=int)
        return np.asarray(self._inner.match_point(point), dtype=int)

    def match_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros((self._num_rows, pts.shape[0]), dtype=bool)
        inside = self._cover.contains_points(pts)
        if inside.any():
            out[:, inside] = self._inner.match_points(pts[inside])
        return out


class ShardedMatcher:
    """The full population matched through per-shard cover-guarded indexes."""

    def __init__(self, subscriptions: RectSet,
                 plan: ShardPlan | None = None, *,
                 num_shards: int | None = None,
                 domain: Rect | None = None):
        if plan is None:
            if num_shards is None:
                raise ValueError("pass a ShardPlan or num_shards")
            plan = plan_shards(subscriptions, num_shards)
        self.plan = plan
        self._num_subscriptions = len(subscriptions)
        self._parts: list[tuple[np.ndarray, CoverMatcher]] = []
        for members, cover in zip(plan.members, plan.covers):
            if len(members) == 0:
                continue
            inner = best_matcher(subscriptions.take(members), domain)
            self._parts.append((members,
                                CoverMatcher(inner, cover, len(members))))

    def match_point(self, point: np.ndarray) -> np.ndarray:
        hits = [members[part.match_point(point)]
                for members, part in self._parts]
        if not hits:
            return np.empty(0, dtype=int)
        return np.sort(np.concatenate(hits))

    def match_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.zeros((self._num_subscriptions, pts.shape[0]), dtype=bool)
        for members, part in self._parts:
            out[members] = part.match_points(pts)
        return out
