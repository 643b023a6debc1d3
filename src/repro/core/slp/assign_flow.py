"""Subscription assignment given preliminary filters (paper Section IV-B).

With the preliminary filters fixed, the paper assigns subscribers by
max-flow over *coverage* edges (nesting + latency), escalating the
load-balance factor from ``beta`` toward ``beta_max`` only as needed.

A maximum flow is rarely unique, and the paper leaves the choice of flow
algorithm open ("depending on the maximum flow algorithm employed...").
Among all maximum flows we prefer a *locality-preserving* one: each
subscriber is first seeded with the covering broker whose covering
rectangle is tightest (smallest volume), under the ``beta`` capacity; the
seed flow is then completed to a maximum flow with standard augmenting
paths.  Augmentation only reshuffles the minimum necessary, so the final
filters (rebuilt from the assignment by the adjustment step) stay tight.
:func:`assign_subscriptions_maxflow` keeps the plain Dinic variant for
the ablation benchmark.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from ...flow.bipartite import assign_by_flow
from ...geometry import RectSet
from .view import SLPView

__all__ = ["AssignmentOutcome", "assign_subscriptions",
           "assign_subscriptions_maxflow", "assign_subscriptions_weighted"]


@dataclass
class AssignmentOutcome:
    """Result of the flow-based assignment over a view."""

    target_of: np.ndarray        #: (m_view,) target row per subscriber
    achieved_beta: float
    feasible: bool               #: routed everyone within beta_max caps
    info: dict[str, Any]
    #: subscribers max-flow could not route within beta_max (before the
    #: best-effort completion); FilterAssign doubles their weights
    unrouted_subscribers: np.ndarray | None = None


def _coverage_costs(view: SLPView, filters: list[RectSet]) -> np.ndarray:
    """(n_targets, m): volume of the tightest covering rect, inf if none."""
    m = view.num_subscribers
    cost = np.full((view.num_targets, m), np.inf)
    for i, rects in enumerate(filters):
        if len(rects) == 0:
            continue
        contains = rects.containment_matrix(view.subscriptions)   # (u, m)
        volumes = rects.volumes()
        masked = np.where(contains, volumes[:, None], np.inf)
        cost[i] = np.where(view.feasible[i], masked.min(axis=0), np.inf)
    return cost


class _SlotState:
    """Incremental <= alpha rectangle slots per target (flat, no tree).

    The locality cost of adding a subscription to a target is the least
    volume enlargement over the target's slots — the same R-tree rule the
    greedy algorithms use, here restricted to the LP's coverage edges.
    """

    def __init__(self, num_targets: int, alpha: int, dim: int) -> None:
        self.alpha = alpha
        self.lo = np.full((num_targets, alpha, dim), np.inf)
        self.hi = np.full((num_targets, alpha, dim), -np.inf)
        self.count = np.zeros(num_targets, dtype=int)
        # Slot volumes, maintained on commit (0 for unused slots) so the
        # hot costs() path need not recompute a prod per slot per call.
        self.volume = np.zeros((num_targets, alpha))

    def costs(self, targets: np.ndarray, rect_lo: np.ndarray,
              rect_hi: np.ndarray) -> np.ndarray:
        """Least enlargement per target, opening a free slot included.

        An unused slot (``lo=+inf``, ``hi=-inf``, volume 0) grows to
        exactly the rect, so its enlargement is the rect's own volume —
        the cost of opening it — and a full target has no unused slot.
        """
        grown_lo = np.minimum(self.lo[targets], rect_lo[None, None, :])
        grown_hi = np.maximum(self.hi[targets], rect_hi[None, None, :])
        enlargement = np.prod(grown_hi - grown_lo, axis=2) \
            - self.volume[targets]
        return enlargement.min(axis=1)

    def _refresh_volume(self, target: int, slot: int) -> None:
        self.volume[target, slot] = np.prod(np.maximum(
            self.hi[target, slot] - self.lo[target, slot], 0.0))

    def commit(self, target: int, rect_lo: np.ndarray, rect_hi: np.ndarray) -> None:
        n = int(self.count[target])
        if n:
            grown_lo = np.minimum(self.lo[target, :n], rect_lo)
            grown_hi = np.maximum(self.hi[target, :n], rect_hi)
            enlargement = np.prod(grown_hi - grown_lo, axis=1) \
                - self.volume[target, :n]
            slot = int(enlargement.argmin())
            best = float(enlargement[slot])
        else:
            slot, best = -1, np.inf
        if n < self.alpha and float(np.prod(rect_hi - rect_lo)) < best:
            self.lo[target, n] = rect_lo
            self.hi[target, n] = rect_hi
            self.count[target] += 1
            self._refresh_volume(target, n)
        else:
            self.lo[target, slot] = np.minimum(self.lo[target, slot], rect_lo)
            self.hi[target, slot] = np.maximum(self.hi[target, slot], rect_hi)
            self._refresh_volume(target, slot)


def _locality_pick(state: _SlotState, options: np.ndarray,
                   sub_lo: np.ndarray, sub_hi: np.ndarray,
                   loads: np.ndarray, kappas: np.ndarray,
                   cover_cost: np.ndarray) -> int:
    """The open target a subscription joins under the locality rule.

    Least slot enlargement first, then the tightest covering rect
    (``cover_cost`` is the subscriber's column of coverage costs), then
    the least relative load.  A lone option needs no ranking.
    """
    if len(options) == 1:
        return int(options[0])
    enlargement = state.costs(options, sub_lo, sub_hi)
    ranked = np.lexsort((
        loads[options] / np.maximum(kappas[options], 1e-12),
        cover_cost[options],
        enlargement))
    return int(options[ranked[0]])


def _capacities(view: SLPView, betabar: float) -> np.ndarray:
    return np.floor(betabar * view.kappas_effective
                    * view.num_subscribers).astype(int)


def _coverer_lists(mask: np.ndarray) -> list[np.ndarray]:
    """``np.flatnonzero(mask[:, j])`` for every column ``j``, from one scan.

    One ``np.nonzero`` over the transpose yields every column's row
    indices in ascending order, grouped by column; the lists are slices
    of it.
    """
    columns, rows = np.nonzero(mask.T)
    ends = np.cumsum(np.bincount(columns, minlength=mask.shape[1])).tolist()
    return [rows[start:end] for start, end in zip([0] + ends[:-1], ends)]


def _grouped_ranges(counts: np.ndarray) -> np.ndarray:
    """``[0..c_0), [0..c_1), ...`` concatenated, for grouped gathers."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total) - np.repeat(starts, counts)


class _CovererCSR:
    """Per-subscriber coverer lists flattened into one index array.

    ``flat[starts[j]:starts[j] + counts[j]]`` are subscriber ``j``'s
    coverers in their original order.  The flat form lets :func:`_augment`
    expand a whole frontier target with a handful of array operations
    instead of a Python loop over (subscriber, coverer) pairs.

    ``replace`` updates one subscriber's list without a rebuild: the new
    list is appended to spare capacity at the tail and the row redirected
    (the widening pass replaces rows one at a time, so rebuilding the
    whole structure there was quadratic).
    """

    __slots__ = ("flat", "starts", "counts", "_used")

    def __init__(self, coverers: list[np.ndarray], spare: int = 0) -> None:
        counts = np.fromiter((len(c) for c in coverers), dtype=np.int64,
                             count=len(coverers))
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        flat = np.empty(total + spare, dtype=np.int64)
        if total:
            np.concatenate(coverers, out=flat[:total])
        self.flat = flat
        self.starts = starts
        self.counts = counts
        self._used = total

    def replace(self, j: int, new_list: np.ndarray) -> None:
        end = self._used + len(new_list)
        if end > len(self.flat):  # grow geometrically when spare runs out
            grown = np.empty(max(end, 2 * len(self.flat)), dtype=np.int64)
            grown[:self._used] = self.flat[:self._used]
            self.flat = grown
        self.flat[self._used:end] = new_list
        self.starts[j] = self._used
        self.counts[j] = len(new_list)
        self._used = end


def _augment(j: int, csr: _CovererCSR, assigned: np.ndarray,
             loads: np.ndarray, caps: np.ndarray,
             subs_of: list[set[int]], num_targets: int,
             start_override: np.ndarray | None = None,
             saturated: np.ndarray | None = None) -> bool:
    """Find an augmenting path for subscriber ``j`` and apply it.

    BFS over targets: start from ``j``'s coverers; traverse by bumping an
    already-assigned subscriber to another of its coverers; stop at any
    target with spare capacity.  Returns False when no path exists (the
    current flow is maximum for these capacities).

    Each frontier target is expanded in one batch: the coverers of all its
    assigned subscribers are gathered from the CSR layout and the first
    discoverer of each newly seen target is kept — exactly what the
    former ``for s in subs_of[t]: for t2 in coverers[s]`` double loop
    produced, in the same discovery order.

    ``saturated``, when given, is a mask of targets proven unreachable to
    spare capacity by an earlier failed search under the *same* caps (see
    :func:`assign_subscriptions`); a failed search marks its closure there
    so later searches starting inside it return immediately.
    """
    flat, starts, counts_of = csr.flat, csr.starts, csr.counts
    if start_override is not None:
        start_targets = np.asarray(start_override, dtype=np.int64)
    else:
        start_targets = flat[starts[j]:starts[j] + counts_of[j]]
    if len(start_targets) == 0:
        return False
    if saturated is not None and saturated[start_targets].all():
        # Every start lies in a component already proven saturated: the
        # BFS would re-explore it and fail.  Failure has no side effects,
        # so the skip leaves all state exactly as the search would.
        return False
    visited = np.zeros(num_targets, dtype=bool)
    parent_prev = np.empty(num_targets, dtype=np.int64)  # -1 = path start
    parent_sub = np.empty(num_targets, dtype=np.int64)   # subscriber moved in
    visited[start_targets] = True
    parent_prev[start_targets] = -1
    parent_sub[start_targets] = j
    queue: deque[int] = deque(start_targets.tolist())

    end = -1
    while queue:
        t = queue.popleft()
        if loads[t] < caps[t]:
            end = t
            break
        subs = subs_of[t]
        if not subs:
            continue
        subs_arr = np.fromiter(subs, dtype=np.int64, count=len(subs))
        counts = counts_of[subs_arr]
        total = int(counts.sum())
        if total == 0:
            continue
        gather = np.repeat(starts[subs_arr], counts) + _grouped_ranges(counts)
        t2s = flat[gather]
        unvisited = ~visited[t2s]
        if not unvisited.any():
            continue
        t2s = t2s[unvisited]
        sources = np.repeat(subs_arr, counts)[unvisited]
        uniq, first = np.unique(t2s, return_index=True)
        visited[uniq] = True
        parent_prev[uniq] = t
        parent_sub[uniq] = sources[first]
        queue.extend(uniq[np.argsort(first)].tolist())
    if end < 0:
        # The search exhausted a saturated component; its visited set is
        # expansion-closed, so it stays saturated until the caps change
        # (successful augments never touch targets inside it).
        if saturated is not None:
            saturated |= visited
        return False

    # Walk back, shifting each moved subscriber one target forward.  The
    # net load change lands entirely on the spare-capacity endpoint: every
    # intermediate target loses one subscriber and gains one.
    loads[end] += 1
    t = end
    while True:
        prev, moved = int(parent_prev[t]), int(parent_sub[t])
        if prev == -1:
            assigned[moved] = t
            subs_of[t].add(moved)
            break
        subs_of[prev].discard(moved)
        subs_of[t].add(moved)
        assigned[moved] = t
        t = prev
    return True


def assign_subscriptions(view: SLPView, filters: list[RectSet],
                         escalation_step: float = 1.05) -> AssignmentOutcome:
    """Locality-seeded maximum-flow assignment with lbf escalation."""
    m = view.num_subscribers
    cost = _coverage_costs(view, filters)
    covered = np.isfinite(cost)

    uncoverable = np.flatnonzero(~covered.any(axis=0))
    for j in uncoverable:
        # No covering target (possible after a fallback): offer every
        # latency-feasible target, or any target as a last resort, at a
        # cost that keeps these edges strictly last-choice.
        feasible_targets = np.flatnonzero(view.feasible[:, j])
        if len(feasible_targets) == 0:
            feasible_targets = np.arange(view.num_targets)
        cost[feasible_targets, j] = np.nanmax(
            np.where(np.isfinite(cost), cost, np.nan)) + 1.0 \
            if np.isfinite(cost).any() else 1.0
        covered[feasible_targets, j] = True

    coverers = _coverer_lists(covered)

    betabar = view.beta
    caps = _capacities(view, betabar)
    loads = np.zeros(view.num_targets, dtype=int)
    assigned = np.full(m, -1, dtype=int)
    subs_of: list[set[int]] = [set() for _ in range(view.num_targets)]

    # Phase 1: assign each subscriber to the covering target with the
    # least incremental filter enlargement (under spare beta capacity),
    # fewest-options subscribers first — the locality-preserving choice
    # among the maximum flows.  Ties break toward the tightest covering
    # rect, then the least relative load.
    state = _SlotState(view.num_targets, view.alpha, view.subscriptions.dim)
    order = np.argsort([len(c) for c in coverers], kind="stable")
    stranded: list[int] = []
    for j in order:
        options = coverers[j]
        open_mask = loads[options] < caps[options]
        if open_mask.any():
            sub_lo = view.subscriptions.lo[j]
            sub_hi = view.subscriptions.hi[j]
            pick = _locality_pick(state, options[open_mask], sub_lo, sub_hi,
                                  loads, view.kappas_effective, cost[:, j])
            assigned[j] = pick
            subs_of[pick].add(int(j))
            loads[pick] += 1
            state.commit(pick, sub_lo, sub_hi)
        else:
            stranded.append(int(j))

    # Phase 2: complete to a maximum flow; escalate the lbf when stuck.
    # Within one round the caps are fixed, so each failed search proves
    # its explored component saturated and later searches confined to it
    # are skipped (``saturated`` resets when the lbf escalates).
    escalations = 0
    remaining = stranded
    csr = _CovererCSR(coverers, spare=view.num_targets)
    while remaining:
        still: list[int] = []
        saturated = np.zeros(view.num_targets, dtype=bool)
        for j in remaining:
            if not _augment(j, csr, assigned, loads, caps, subs_of,
                            view.num_targets, saturated=saturated):
                still.append(j)
        if not still:
            remaining = still
            break
        if betabar >= view.beta_max:
            remaining = still
            break
        betabar = min(betabar * escalation_step, view.beta_max)
        caps = _capacities(view, betabar)
        escalations += 1
        remaining = still

    # Widening pass: coverage edges are a preference, not a hard
    # constraint — the final filters are rebuilt from the assignment, so a
    # latency-feasible non-covering target is valid (it merely costs
    # bandwidth).  Let stranded subscribers use any latency-feasible
    # target and augment once more at the current cap before giving up.
    if remaining:
        widened = []
        for j in remaining:
            extra = np.flatnonzero(view.feasible[:, j])
            if len(extra):
                coverers[j] = np.union1d(coverers[j], extra)
            if _augment(j, csr, assigned, loads, caps, subs_of,
                        view.num_targets, start_override=coverers[j]):
                # j is now assigned, so its widened coverer list can matter
                # to later traversals — patch its CSR row.  Unassigned
                # subscribers are reached only through their own start set,
                # which is passed explicitly above.
                csr.replace(j, coverers[j])
            else:
                widened.append(j)
        remaining = widened

    # Best-effort completion for anyone max-flow could not route.
    feasible = not remaining and len(uncoverable) == 0
    unrouted = np.array(remaining, dtype=int)
    for j in remaining:
        options = coverers[j]
        relative = loads[options] / np.maximum(
            view.kappas_effective[options], 1e-12)
        pick = int(options[relative.argmin()])
        assigned[j] = pick
        loads[pick] += 1

    return AssignmentOutcome(
        target_of=assigned,
        achieved_beta=betabar,
        feasible=feasible,
        info={
            "stranded_after_seed": len(stranded),
            "unrouted": len(remaining),
            "uncoverable": len(uncoverable),
            "escalations": escalations,
        },
        unrouted_subscribers=unrouted,
    )


def assign_subscriptions_maxflow(view: SLPView, filters: list[RectSet],
                                 escalation_step: float = 1.05) -> AssignmentOutcome:
    """Plain Dinic max-flow assignment (ablation baseline; no locality)."""
    coverage = view.coverage(filters)
    candidates = [np.flatnonzero(coverage[:, j])
                  for j in range(view.num_subscribers)]
    uncoverable = [j for j, c in enumerate(candidates) if len(c) == 0]
    for j in uncoverable:
        feasible_targets = np.flatnonzero(view.feasible[:, j])
        candidates[j] = (feasible_targets if len(feasible_targets)
                         else np.arange(view.num_targets))

    flow = assign_by_flow(candidates, view.kappas_effective, view.beta,
                          view.beta_max, escalation_step=escalation_step)
    target_of = flow.assignment.copy()
    unrouted = np.flatnonzero(target_of < 0)
    if len(unrouted):
        loads = np.bincount(target_of[target_of >= 0],
                            minlength=view.num_targets).astype(float)
        for j in unrouted:
            options = candidates[j]
            relative = loads[options] / np.maximum(
                view.kappas_effective[options], 1e-12)
            pick = int(options[relative.argmin()])
            target_of[j] = pick
            loads[pick] += 1

    return AssignmentOutcome(
        target_of=target_of,
        achieved_beta=flow.achieved_beta,
        feasible=flow.feasible and not uncoverable,
        info={
            "stranded_after_seed": int(len(unrouted)),
            "unrouted": int(len(unrouted)),
            "uncoverable": len(uncoverable),
            "escalations": 0,
        },
    )


def assign_subscriptions_weighted(view: SLPView, filters: list[RectSet],
                                  escalation_step: float = 1.05
                                  ) -> AssignmentOutcome:
    """Assignment for weighted views (super-subscriptions).

    Groups are indivisible, so this is bin packing rather than max-flow:
    a best-fit-decreasing greedy with the same locality rule as
    :func:`assign_subscriptions` (least filter enlargement under spare
    capacity, ties toward the tightest covering rect then the least
    relative load), escalating the load-balance factor toward
    ``beta_max`` for whatever will not fit.  Capacities are expressed in
    *member* units (``floor(betabar * kappa_i * total_weight)``) —
    exactly the caps the expanded member-level problem has — and any
    residual overload is repaired exactly at member granularity by the
    aggregation driver after expansion.
    """
    if view.weights is None:
        raise ValueError("weighted assignment requires view.weights")
    weights = view.weights.astype(np.int64)
    m = view.num_subscribers
    total = float(weights.sum())
    cost = _coverage_costs(view, filters)
    covered = np.isfinite(cost)

    uncoverable = np.flatnonzero(~covered.any(axis=0))
    for j in uncoverable:
        feasible_targets = np.flatnonzero(view.feasible[:, j])
        if len(feasible_targets) == 0:
            feasible_targets = np.arange(view.num_targets)
        cost[feasible_targets, j] = np.nanmax(
            np.where(np.isfinite(cost), cost, np.nan)) + 1.0 \
            if np.isfinite(cost).any() else 1.0
        covered[feasible_targets, j] = True

    coverers = _coverer_lists(covered)

    def caps_at(b: float) -> np.ndarray:
        return np.floor(b * view.kappas_effective * total).astype(np.int64)

    betabar = view.beta
    caps = caps_at(betabar)
    loads = np.zeros(view.num_targets, dtype=np.int64)
    assigned = np.full(m, -1, dtype=int)

    # Fewest options first, heaviest first within a tie: the constrained
    # heavy groups claim capacity while every bin is still open.
    num_options = np.fromiter((len(c) for c in coverers), dtype=np.int64,
                              count=m)
    order = np.lexsort((-weights, num_options))

    state = _SlotState(view.num_targets, view.alpha, view.subscriptions.dim)
    stranded: list[int] = []
    for j in order:
        options = coverers[j]
        open_mask = loads[options] + weights[j] <= caps[options]
        if open_mask.any():
            sub_lo = view.subscriptions.lo[j]
            sub_hi = view.subscriptions.hi[j]
            pick = _locality_pick(state, options[open_mask], sub_lo, sub_hi,
                                  loads, view.kappas_effective, cost[:, j])
            assigned[j] = pick
            loads[pick] += weights[j]
            state.commit(pick, sub_lo, sub_hi)
        else:
            stranded.append(int(j))

    # Escalate the lbf for whatever would not fit; groups stay whole, so
    # only the caps move (a path-augmenting exchange of unequal weights
    # is not a flow — the member-level repair handles the remainder).
    escalations = 0
    remaining = stranded
    while remaining and betabar < view.beta_max:
        betabar = min(betabar * escalation_step, view.beta_max)
        caps = caps_at(betabar)
        escalations += 1
        still: list[int] = []
        for j in remaining:
            options = coverers[j]
            open_mask = loads[options] + weights[j] <= caps[options]
            if open_mask.any():
                open_options = options[open_mask]
                relative = loads[open_options] / np.maximum(
                    view.kappas_effective[open_options], 1e-12)
                ranked = np.lexsort((relative, cost[open_options, j]))
                pick = int(open_options[ranked[0]])
                assigned[j] = pick
                loads[pick] += weights[j]
            else:
                still.append(j)
        remaining = still

    feasible = not remaining and len(uncoverable) == 0
    unrouted = np.array(remaining, dtype=int)
    for j in remaining:  # best effort: least relative load among coverers
        options = coverers[j]
        relative = loads[options] / np.maximum(
            view.kappas_effective[options], 1e-12)
        pick = int(options[relative.argmin()])
        assigned[j] = pick
        loads[pick] += weights[j]

    return AssignmentOutcome(
        target_of=assigned,
        achieved_beta=betabar,
        feasible=feasible,
        info={
            "stranded_after_seed": len(stranded),
            "unrouted": len(remaining),
            "uncoverable": len(uncoverable),
            "escalations": escalations,
        },
        unrouted_subscribers=unrouted,
    )
