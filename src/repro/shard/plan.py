"""Shard planning: subscription subgroups, covers, and deterministic packing.

A shard plan partitions the subscriber population into *subgroups* of
similar subscriptions (Shafique's subscription subgrouping) and packs
the subgroups onto ``num_shards`` shards.  Subgroups reuse the
feasibility-signature discipline of :mod:`repro.core.slp.aggregate`:
subscribers sharing a dissemination signature — the assigned leaf when
an assignment exists, otherwise the packed row of the latency-feasible
leaf set — route identically through the tree, so grouping them onto
one shard minimizes inter-shard coupling.

Each shard also carries one *aggregate cover filter*: the union of its
subgroups' minimum enclosing boxes.  Every member subscription lies
inside the cover, so an event outside it cannot match any member —
shard matchers pre-filter event batches against the cover before any
per-subscription work (see :class:`repro.shard.matcher.CoverMatcher`).

Everything here is deterministic — no RNG, no hashing of unordered
containers — so the same population always yields the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import RectSet
from ..pubsub.filters import Filter

__all__ = ["ShardPlan", "plan_shards", "MAX_COVER_RECTS"]

#: Cap on a shard cover filter's rectangle count; beyond it consecutive
#: subgroup boxes are coalesced (the cover only grows, so it stays a
#: superset of every member subscription).
MAX_COVER_RECTS = 64


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of the subscriber population.

    ``groups`` lists the subgroups in canonical order (ascending first
    member); ``group_shard[i]`` is the shard owning ``groups[i]``;
    ``members[s]`` is the sorted union of shard ``s``'s subgroups; and
    ``covers[s]`` is the shard's aggregate cover filter.
    """

    num_subscribers: int
    num_shards: int
    members: tuple[np.ndarray, ...]
    groups: tuple[np.ndarray, ...]
    group_shard: np.ndarray
    covers: tuple[Filter, ...]

    def shard_of(self) -> np.ndarray:
        """Shard index per subscriber (every subscriber is owned once)."""
        owner = np.full(self.num_subscribers, -1, dtype=int)
        for shard, members in enumerate(self.members):
            owner[members] = shard
        return owner

    def loads(self) -> np.ndarray:
        """Subscribers per shard."""
        return np.array([len(m) for m in self.members], dtype=np.int64)


def _signature_ids(num_subscribers: int,
                   assignment: np.ndarray | None,
                   feasible: np.ndarray | None) -> np.ndarray:
    """Dense subgroup-signature id per subscriber, deterministic.

    The assigned leaf dominates when available (subscribers on one leaf
    share the whole dissemination path); otherwise the packed feasible
    leaf set (the aggregation signature of ``slp.aggregate``); otherwise
    a single signature.
    """
    if assignment is not None:
        sig = np.asarray(assignment, dtype=int)
        if sig.shape != (num_subscribers,):
            raise ValueError("assignment must have one entry per subscriber")
        _uniq, ids = np.unique(sig, return_inverse=True)
        return ids
    if feasible is not None:
        packed = np.packbits(np.asarray(feasible, dtype=bool), axis=0).T
        if packed.shape[0] != num_subscribers:
            raise ValueError("feasible must have one column per subscriber")
        _uniq, ids = np.unique(packed, axis=0, return_inverse=True)
        return ids
    return np.zeros(num_subscribers, dtype=int)


def _build_cover(subscriptions: RectSet,
                 shard_groups: list[np.ndarray],
                 max_cover_rects: int) -> Filter:
    """Union of per-subgroup MEBs, coalesced down to the rect cap."""
    if not shard_groups:
        return Filter.empty(subscriptions.dim)
    if len(shard_groups) > max_cover_rects:
        # Coalesce consecutive subgroups (canonical order) so the cover
        # stays within the cap; a merged MEB still encloses every member.
        chunks = np.array_split(np.arange(len(shard_groups)),
                                max_cover_rects)
        shard_groups = [np.concatenate([shard_groups[i] for i in chunk])
                        for chunk in chunks if len(chunk)]
    return Filter.from_rects(
        subscriptions.take(group).meb() for group in shard_groups)


def plan_shards(subscriptions: RectSet,
                num_shards: int,
                *,
                assignment: np.ndarray | None = None,
                feasible: np.ndarray | None = None,
                max_group_size: int | None = None,
                max_cover_rects: int = MAX_COVER_RECTS) -> ShardPlan:
    """Partition ``subscriptions`` into at most ``num_shards`` shards.

    Subgroups are formed by dissemination signature, split into chunks
    of at most ``max_group_size`` (default: enough granularity for ~8
    subgroups per shard, so longest-processing-time packing balances),
    ordered canonically, and packed LPT onto the least-loaded shard
    (ties to the lowest shard id).  The effective shard count is capped
    at the subgroup count — tiny populations simply use fewer shards.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    m = len(subscriptions)
    if max_group_size is None:
        max_group_size = max(1, -(-m // (num_shards * 8)))
    if max_group_size < 1:
        raise ValueError("max_group_size must be at least 1")

    ids = _signature_ids(m, assignment, feasible)
    groups: list[np.ndarray] = []
    for sid in range(int(ids.max()) + 1 if m else 0):
        indices = np.flatnonzero(ids == sid)
        if len(indices) == 0:
            continue
        pieces = -(-len(indices) // max_group_size)
        groups.extend(np.array_split(indices, pieces))
    groups.sort(key=lambda g: int(g[0]))

    effective = max(1, min(num_shards, len(groups)))
    group_shard = np.zeros(len(groups), dtype=int)
    load = np.zeros(effective, dtype=np.int64)
    order = sorted(range(len(groups)),
                   key=lambda i: (-len(groups[i]), int(groups[i][0])))
    for i in order:
        shard = int(np.argmin(load))  # argmin ties to the lowest index
        group_shard[i] = shard
        load[shard] += len(groups[i])

    members = []
    covers = []
    for shard in range(effective):
        shard_groups = [groups[i] for i in np.flatnonzero(group_shard == shard)]
        owned = (np.sort(np.concatenate(shard_groups))
                 if shard_groups else np.empty(0, dtype=int))
        members.append(owned)
        covers.append(_build_cover(subscriptions, shard_groups,
                                   max_cover_rects))
    return ShardPlan(num_subscribers=m, num_shards=effective,
                     members=tuple(members), groups=tuple(groups),
                     group_shard=group_shard, covers=tuple(covers))
