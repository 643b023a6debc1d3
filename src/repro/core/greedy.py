"""The greedy subscriber-assignment algorithms (paper Section III).

* **Gr** (:func:`online_greedy`) — processes subscribers in arrival order.
  For each subscriber it computes, for every *candidate* leaf broker
  (latency-feasible and not overloaded), the cost of incorporating the
  subscription into the filters along the tree path from the publisher to
  that leaf — the sum of least volume enlargements, R-tree style — and
  assigns greedily to the cheapest candidate, breaking ties toward the
  least-loaded broker.

* **Gr\\*** (:func:`offline_greedy`) — same per-subscriber step, but
  processes subscribers in ascending order of candidate-set cardinality,
  re-ordering lazily whenever a broker fills up (subscribers with fewer
  options go first, so the algorithm is less likely to be forced into a
  costly decision).

* **Gr¬l** (``online_greedy(..., respect_latency=False)``) — the paper's
  latency-blind variant used to show that ignoring a criterion produces a
  useless yardstick.

Filters are maintained incrementally as at most ``alpha`` rectangles per
broker.  Nesting is preserved exactly as in R-tree insertion: when a leaf
slot rectangle grows, the grown rectangle is propagated upward and
incorporated into an ancestor slot at every level, so each slot rectangle
is always contained in some slot of its parent.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from ..pubsub.filters import Filter
from ..geometry import RectSet
from .problem import SAProblem, SASolution

__all__ = ["online_greedy", "offline_greedy"]


class _Step:
    """One level of a costed walk, one entry per candidate that steps.

    Per candidate: its node, the slot its rect goes into, whether that
    slot is freshly opened or already contains the rect, and the slot's
    grown rectangle.  ``rows`` are the stepping candidates' indices into
    the costed candidates (None: all of them, in order).
    """

    __slots__ = ("rows", "nodes", "slot", "fresh", "contained", "lo", "hi")

    def __init__(self, nodes: np.ndarray, slot: np.ndarray, fresh: np.ndarray,
                 contained: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
        self.rows: np.ndarray | None = None
        self.nodes = nodes
        self.slot = slot
        self.fresh = fresh
        self.contained = contained
        self.lo = lo
        self.hi = hi


class _TreeFilterState:
    """Incremental <= alpha rectangles per tree node, arrays-of-slots.

    An unused slot holds the empty rectangle ``(inf, -inf)``, which
    contains nothing, and volume ``-inf``, so growing it costs ``inf``
    and only the explicit fresh-slot rule ever fills it.  ``volume``
    keeps each used slot's volume current, so a costing reads it
    instead of recomputing it.
    """

    def __init__(self, problem: SAProblem) -> None:
        tree = problem.tree
        alpha = problem.params.alpha
        dim = problem.event_dim
        self.alpha = alpha
        self.lo = np.full((tree.num_nodes, alpha, dim), np.inf)
        self.hi = np.full((tree.num_nodes, alpha, dim), -np.inf)
        self.volume = np.full((tree.num_nodes, alpha), -np.inf)
        self.count = np.zeros(tree.num_nodes, dtype=int)
        # row * alpha for each of up to num_leaves (distinct) candidates.
        self._row_base = np.arange(tree.num_leaves) * alpha
        # The per-level steps of the last path_costs, which commit_candidate
        # applies; None once applied, or before any costing.
        self._walk: list[_Step] | None = None

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
                           rect_hi: np.ndarray, rect_volume: np.ndarray
                           ) -> tuple[np.ndarray, _Step, np.ndarray]:
        """Least-enlargement incorporation of one rect per node.

        ``nodes`` is a vector of ``k`` node ids; ``rect_lo``/``rect_hi``
        are the rectangle to incorporate at each node, ``(k, d)``, or one
        ``(d,)`` rectangle for all of them, and ``rect_volume`` its
        volume.  Returns ``(cost, step, grown_volume)``: ``step`` holds,
        per node, the slot the rect goes into (a used slot, or the first
        unused one when opening a fresh slot is cheaper), the grown
        slot rectangle, and whether a used slot already contained the
        rect (no state change, so ancestors are guaranteed to nest it
        too); ``grown_volume`` is the grown rectangle's volume.
        """
        slot_lo = self.lo[nodes]                        # (k, alpha, d)
        slot_hi = self.hi[nodes]
        r_lo = rect_lo[..., None, :]
        r_hi = rect_hi[..., None, :]
        grown_slot_lo = np.minimum(slot_lo, r_lo)
        grown_slot_hi = np.maximum(slot_hi, r_hi)
        new_volume = np.multiply.reduce(grown_slot_hi - grown_slot_lo, axis=2)
        enlargement = new_volume - self.volume[nodes]   # inf on unused slots
        contains = (np.logical_and.reduce(slot_lo <= r_lo, axis=2)
                    & np.logical_and.reduce(r_hi <= slot_hi, axis=2))
        np.copyto(enlargement, 0.0, where=contains)

        # Rows of (k, alpha) arrays are read through flat indices
        # ``row * alpha + slot``.
        row_base = self._row_base[:len(nodes)]
        slot = enlargement.argmin(axis=1)
        cost = enlargement.ravel()[row_base + slot]
        counts = self.count[nodes]
        # A fresh slot is open whenever counts < alpha, and always when
        # the node has no used slot (alpha >= 1).
        fresh = (counts < self.alpha) & (rect_volume < cost)
        fresh |= counts == 0
        np.copyto(cost, rect_volume, where=fresh)
        # The first unused slot grows from empty to exactly the rect.
        np.copyto(slot, counts, where=fresh)
        flat = row_base + slot
        dim = slot_lo.shape[2]
        step = _Step(nodes, slot, fresh, contains.ravel()[flat],
                     grown_slot_lo.reshape(-1, dim).take(flat, axis=0),
                     grown_slot_hi.reshape(-1, dim).take(flat, axis=0))
        return cost, step, new_volume.ravel()[flat]

    def path_costs(self, leaf_rows: np.ndarray, sub_lo: np.ndarray,
                   sub_hi: np.ndarray) -> np.ndarray:
        """Total enlargement along each candidate leaf's path for one subscription.

        The walk is kept, so :meth:`commit_candidate` can apply any
        candidate's placement without costing it again.
        """
        chains = self.leaf_chains[leaf_rows]
        total, step, grown_volume = self._slot_enlargements(
            chains[:, 0], sub_lo, sub_hi, np.multiply.reduce(sub_hi - sub_lo))
        walk = [step]
        rows: np.ndarray | None = None       # None: every candidate
        for level in range(1, self.max_depth):
            nodes = chains[:, level] if rows is None else chains[rows, level]
            # A rect already inside an existing slot changes nothing, and the
            # nesting invariant guarantees every ancestor also contains that
            # slot — stop propagating for those rows.
            keep = ~step.contained & (nodes >= 0)
            rect_lo, rect_hi, volume = step.lo, step.hi, grown_volume
            if not keep.all():
                if not keep.any():
                    break
                rows = keep.nonzero()[0] if rows is None else rows[keep]
                nodes = nodes[keep]
                rect_lo, rect_hi = rect_lo[keep], rect_hi[keep]
                volume = volume[keep]
            cost, step, grown_volume = self._slot_enlargements(
                nodes, rect_lo, rect_hi, volume)
            step.rows = rows
            walk.append(step)
            if rows is None:
                total += cost
            else:
                total[rows] += cost
        self._walk = walk
        return total

    def commit_candidate(self, index: int) -> None:
        """Incorporate candidate ``index`` of the last :meth:`path_costs`.

        Applies the walk that costed it, level by level from the leaf;
        each level's slot becomes its grown rectangle, until a level
        already contains the rect.  The walk is spent afterwards: the
        state it was costed on has changed.
        """
        walk, self._walk = self._walk, None
        if walk is None:
            raise RuntimeError("commit_candidate needs a path_costs walk")
        for step in walk:
            if step.rows is None:
                pos = index
            else:
                pos = int(np.searchsorted(step.rows, index))
                if pos == len(step.rows) or step.rows[pos] != index:
                    return  # the chain ended below this level
            if step.contained[pos]:
                return  # already nested here and hence everywhere above
            node, slot = step.nodes[pos], step.slot[pos]
            grown_lo, grown_hi = step.lo[pos], step.hi[pos]
            self.lo[node, slot] = grown_lo
            self.hi[node, slot] = grown_hi
            self.volume[node, slot] = np.multiply.reduce(
                np.maximum(grown_hi - grown_lo, 0.0))
            if step.fresh[pos]:
                self.count[node] += 1

    def commit(self, leaf_row: int, sub_lo: np.ndarray, sub_hi: np.ndarray) -> None:
        """Incorporate the subscription along the chosen leaf's path.

        The same walk as a costing, over the one row.
        """
        self.path_costs(np.array([leaf_row]), sub_lo, sub_hi)
        self.commit_candidate(0)

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
        self.volume.fill(-np.inf)
        self.count.fill(0)
        self._walk = None
        for node, filt in filters.items():
            rects = filt.rects
            n = min(len(rects), self.alpha)
            if n:
                self.lo[node, :n] = rects.lo[:n]
                self.hi[node, :n] = rects.hi[:n]
                self.volume[node, :n] = np.multiply.reduce(
                    np.maximum(self.hi[node, :n] - self.lo[node, :n], 0.0),
                    axis=1)
                self.count[node] = n

    def to_filters(self, dim: int) -> dict[int, Filter]:
        filters: dict[int, Filter] = {}
        for node in range(1, self.lo.shape[0]):
            n = int(self.count[node])
            if n == 0:
                filters[node] = Filter.empty(dim)
            else:
                filters[node] = Filter(RectSet(self.lo[node, :n].copy(),
                                               self.hi[node, :n].copy(),
                                               validate=False))
        return filters


class _LoadCaps:
    """The greedy load caps for a population of ``m``, built once per ``m``.

    A leaf is open at a stage while ``loads + 1 <= limits[stage]``, one
    row ``lbf * kappas * m + 1e-9`` for ``lbf`` = ``beta``, ``beta_max``;
    ``share`` is ``kappas * m``, the relative-load tie-break's divisor.
    """

    __slots__ = ("_kappas", "_stage_kappas", "population", "limits", "share")

    def __init__(self, problem: SAProblem,
                 population: int | None = None) -> None:
        self._kappas = problem.kappas
        self._stage_kappas = np.multiply.outer(
            [problem.params.beta, problem.params.beta_max], problem.kappas)
        self.rescale(population if population is not None
                     else problem.num_subscribers)

    def rescale(self, population: int) -> None:
        self.population = population
        self.limits = self._stage_kappas * population + 1e-9
        self.share = self._kappas * population


def _greedy_assign_one(problem: SAProblem, state: _TreeFilterState,
                       loads: np.ndarray, j: int, respect_latency: bool,
                       caps: _LoadCaps,
                       allowed: np.ndarray | None = None) -> tuple[int, bool]:
    """Assign subscriber ``j`` and grow the filters along its path.

    Returns ``(leaf_row, load_cap_respected)``; the caller accounts the
    load.  ``caps`` holds the stage caps relative to the population:
    the full problem size offline, the current active count in the
    dynamic manager.  ``allowed`` optionally restricts the candidate
    leaf rows (the runtime's failover repair excludes unreachable
    brokers); it is a hard constraint — even the best-effort fallback
    stays inside it.
    """
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
    for limit in caps.limits:
        candidate_rows = (latency_ok & ((loads + 1) <= limit)).nonzero()[0]
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
    near_best = (costs <= costs.min() + 1e-12).nonzero()[0]
    if len(near_best) > 1:
        # Tie-break: least relative load m_i / (kappa_i m).
        tied = candidate_rows[near_best]
        relative = loads[tied] / caps.share[tied]
        index = int(near_best[relative.argmin()])
    else:
        index = int(near_best[0])
    state.commit_candidate(index)
    return int(candidate_rows[index]), cap_respected


def _finish(problem: SAProblem, state: _TreeFilterState,
            assignment_rows: np.ndarray, name: str, started: float,
            violations: int) -> SASolution:
    leaf_nodes = problem.tree.leaves[assignment_rows]
    filters = state.to_filters(problem.event_dim)
    return SASolution(
        problem=problem,
        assignment=leaf_nodes,
        filters=filters,
        info={
            "algorithm": name,
            "runtime_seconds": time.perf_counter() - started,
            "load_cap_violations": violations,
        },
    )


def online_greedy(problem: SAProblem, *, respect_latency: bool = True,
                  order: np.ndarray | None = None) -> SASolution:
    """Gr: assign subscribers one by one in (arrival) order.

    ``respect_latency=False`` yields the paper's Gr¬l variant.  ``order``
    overrides the processing order (used by ablation benches).
    """
    started = time.perf_counter()
    state = _TreeFilterState(problem)
    m = problem.num_subscribers
    loads = np.zeros(problem.num_leaf_brokers, dtype=int)
    assignment_rows = np.zeros(m, dtype=int)
    caps = _LoadCaps(problem)
    violations = 0

    sequence = np.arange(m) if order is None else np.asarray(order, dtype=int)
    for j in sequence:
        row, ok = _greedy_assign_one(problem, state, loads, int(j),
                                     respect_latency, caps)
        if not ok:
            violations += 1
        assignment_rows[j] = row
        loads[row] += 1

    name = "Gr" if respect_latency else "Gr-no-latency"
    return _finish(problem, state, assignment_rows, name, started, violations)


def offline_greedy(problem: SAProblem) -> SASolution:
    """Gr*: process subscribers in ascending candidate-set cardinality.

    Candidate counts shrink as brokers fill; a lazy priority queue keeps
    the order current (each count decrease pushes a fresh heap entry, and
    stale entries are skipped on pop) — this is the paper's "updates the
    ordering of remaining subscribers whenever a broker becomes fully
    loaded".
    """
    started = time.perf_counter()
    state = _TreeFilterState(problem)
    m = problem.num_subscribers
    loads = np.zeros(problem.num_leaf_brokers, dtype=int)
    assignment_rows = np.zeros(m, dtype=int)
    caps = _LoadCaps(problem)
    violations = 0

    broker_open = np.ones(problem.num_leaf_brokers, dtype=bool)
    counts = problem.feasible_leaf.sum(axis=0).astype(int)
    heap: list[tuple[int, int]] = [(int(counts[j]), j) for j in range(m)]
    heapq.heapify(heap)
    done = np.zeros(m, dtype=bool)

    while heap:
        count, j = heapq.heappop(heap)
        if done[j]:
            continue
        if count != counts[j]:
            heapq.heappush(heap, (int(counts[j]), j))
            continue
        row, ok = _greedy_assign_one(problem, state, loads, j, True, caps)
        if not ok:
            violations += 1
        done[j] = True
        assignment_rows[j] = row
        loads[row] += 1

        if broker_open[row] and (loads[row] + 1) > caps.limits[0][row]:
            # Broker just became fully loaded: shrink candidate counts of
            # remaining subscribers that could have used it.
            broker_open[row] = False
            affected = np.flatnonzero(problem.feasible_leaf[row] & ~done)
            counts[affected] -= 1
            for j2 in affected:
                heapq.heappush(heap, (int(counts[j2]), int(j2)))

    return _finish(problem, state, assignment_rows, "Gr*", started, violations)
