"""Preliminary filter assignment — FilterAssign (paper Algorithm 1).

Running LPRelax on every subscriber is intractable, so FilterAssign finds
a small *epsilon-certificate* (coreset) ``Q`` of the subscriber set: any
filter assignment covering ``Q`` epsilon-expands to cover everyone.  The
certificate is found by iterative reweighted sampling:

* maintain a weight per subscriber (reset to 1 per stage);
* sample ``q = 10 g ln g`` subscribers by weight, solve the LP on the
  sample (plus a load-balance sample ``Sb`` of size ``10 |B|``), and check
  whether the epsilon-expanded solution covers everyone;
* if not, double the weights of the uncovered subscribers and repeat —
  a *valid* iteration is one where the violators carry at most an
  ``eps`` fraction of the total weight (Lemma 3 makes this likely);
* after ``4 g ln(m / g)`` valid iterations, conclude the certificate is
  larger than ``g`` (Lemma 2) and double ``g`` (exponential search);
  an iteration with no valid draw in ``max_invalid_retries`` tries ends
  the stage at once, since at a large enough ``g`` each draw is valid
  with probability at least 1/2 (Lemma 3).

Every budget here follows the paper's constants; practical caps bound the
retry loops so a pathological instance degrades to a documented fallback
(one global-MEB filter per target) instead of spinning.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ...geometry import RectSet
from ...perf.profiler import span
from .assign_flow import (
    AssignmentOutcome,
    assign_subscriptions,
    assign_subscriptions_weighted,
    routing_floor,
)
from .filtergen import FilterGenConfig, generate_candidate_filters
from .lp_relax import lp_relax
from .view import SLPView

__all__ = ["FilterAssignConfig", "FilterAssignResult", "assignment_outcome",
           "filter_assign", "prune_redundant_rects"]


@dataclass(frozen=True)
class FilterAssignConfig:
    """Tunables of Algorithm 1 (defaults are the paper's settings)."""

    eps: float = 0.1                   #: expansion/violation tolerance
    initial_g: int = 4                 #: starting certificate-size guess
    sample_factor: float = 10.0        #: q = sample_factor * g * ln(g)
    sb_factor: int = 10                #: |Sb| = sb_factor * num_targets
    iteration_factor: float = 4.0      #: budget = iteration_factor * g * ln(m/g)
    max_invalid_retries: int = 8       #: "repeat until valid" cap; an
    #: iteration that reaches it without a valid draw doubles g
    helper_retries: int = 3            #: fresh-Sb retries inside the helper
    max_stage_iterations: int = 12     #: practical per-stage cap (paper's
    #: per-stage budget grows with g; capping it forces g to double sooner,
    #: which grows the sample — the productive direction when coverage
    #: stalls, e.g. on topic-based workloads with many distinct cells)
    max_total_iterations: int = 72     #: global cap across all stages
    require_load_feasible: bool = True  #: fold load balance into acceptance
    filtergen: FilterGenConfig = field(default_factory=FilterGenConfig)


@dataclass
class FilterAssignResult:
    """Preliminary per-target filters plus solver telemetry."""

    filters: list[RectSet]             #: epsilon-expanded preliminary filters
    fractional_objective: float | None  #: LP lower bound (None on fallback)
    info: dict[str, Any]
    #: the load-balanced assignment of the view over ``filters`` that the
    #: acceptance check computed; ``None`` when no check ran (fallback,
    #: or ``require_load_feasible=False``)
    outcome: AssignmentOutcome | None = None

    @property
    def used_fallback(self) -> bool:
        return bool(self.info.get("fallback", False))


def _weighted_sample(rng: np.random.Generator, weights: np.ndarray,
                     size: int) -> np.ndarray:
    """Distinct indices sampled with probability proportional to weight."""
    m = weights.shape[0]
    size = min(size, m)
    probabilities = weights / weights.sum()
    return rng.choice(m, size=size, replace=False, p=probabilities)


def _run_helper(view: SLPView, sample: np.ndarray, rng: np.random.Generator,
                config: FilterAssignConfig,
                info: dict[str, Any]) -> tuple[list[RectSet], float] | None:
    """FilterAssignHelper: add a load-balance sample, generate candidates, solve.

    Retries with a fresh ``Sb`` when a random draw makes the LP infeasible
    (paper: "to guard against the small possibility that a random choice
    of Sb makes the ... problem infeasible").  Every attempt solves one LP
    (FilterGen always includes the global MEB, so ``lp_relax`` never
    rejects a sample before solving) and is counted in
    ``info["lp_calls"]``; an attempt whose LP is infeasible is also
    counted in ``info["lp_infeasible"]``.
    """
    m = view.num_subscribers
    sb_size = min(config.sb_factor * view.num_targets, m)
    # The C3 budget starts at the desired lbf and escalates toward the hard
    # cap across retries: an Sb draw (or the instance itself) may be
    # load-infeasible at beta while perfectly solvable within beta_max.
    betas = np.linspace(view.beta, view.beta_max, config.helper_retries)
    for attempt in range(config.helper_retries):
        sb = rng.choice(m, size=sb_size, replace=False)
        sa = np.union1d(sample, sb)
        sb_mask = np.isin(sa, sb)

        sa_subs = view.subscriptions.take(sa)
        with span("filtergen"):
            candidates = generate_candidate_filters(
                sa_subs, view.num_targets, rng, config.filtergen,
                network_points=view.network_points[sa])
        outcome = lp_relax(sa_subs, view.feasible[:, sa], sb_mask, candidates,
                           view.kappas_effective, view.alpha,
                           float(betas[attempt]), rng,
                           weights=None if view.weights is None
                           else view.weights[sa])
        info["lp_calls"] += 1
        if outcome is not None:
            return outcome.filters, outcome.fractional_objective
        info["lp_infeasible"] += 1
    return None


def _fallback(view: SLPView, started: float, info: dict[str, Any]) -> FilterAssignResult:
    """One global-MEB filter per target: always covers, never cheap."""
    meb = view.subscriptions.meb()
    one = RectSet(meb.lo[None, :], meb.hi[None, :], validate=False)
    info.update(fallback=True, runtime_seconds=time.perf_counter() - started)
    return FilterAssignResult(filters=[one for _ in range(view.num_targets)],
                              fractional_objective=None, info=info)


def _assign(view: SLPView, filters: list[RectSet]) -> AssignmentOutcome:
    """The load-balanced assignment of the view over ``filters``."""
    if view.weights is None:
        return assign_subscriptions(view, filters)
    return assign_subscriptions_weighted(view, filters)


def assignment_outcome(view: SLPView,
                       result: FilterAssignResult) -> AssignmentOutcome:
    """``result``'s assignment: the acceptance check's, else a fresh one.

    The assignment is a deterministic function of ``(view, filters)``,
    so reusing the acceptance check's outcome gives the caller exactly
    what a second call would.
    """
    if result.outcome is not None:
        return result.outcome
    with span("assign"):
        return _assign(view, result.filters)


def _finish(result: FilterAssignResult,
            info: dict[str, Any]) -> FilterAssignResult:
    """Stamp the run's final LP counts on the result being returned.

    A candidate's ``info`` is a snapshot taken when it was built; the
    solves made after that belong to the run all the same.
    """
    result.info["lp_calls"] = info["lp_calls"]
    result.info["lp_infeasible"] = info["lp_infeasible"]
    return result


def prune_redundant_rects(view: SLPView,
                          filters: list[RectSet]) -> list[RectSet]:
    """Drop rounded rectangles that are redundant for a feasible assignment.

    Randomized rounding inflates filters by up to ``2 ln |Sa|`` rectangles
    per broker; many are redundant.  Removing the redundant ones — largest
    volume first — tightens the preliminary filters, so the coverage edges
    the assignment step sees stay local and the final bandwidth drops.

    A removal must keep the assignment *capacity-plausible*, not merely
    covered: a rectangle is dropped only if every subscriber that would
    lose this broker keeps at least one other covering broker, and no
    broker's **exclusive demand** (subscribers it alone covers) would
    exceed its desired-lbf capacity ``floor(beta * kappa_i * m)`` — the
    exact Hall-condition failure a coverage-only prune runs into.

    Weighted views (aggregated super-subscriptions) run the same logic
    with demands in member units; with unit weights every quantity below
    reduces to the original unweighted computation exactly.
    """
    m = view.num_subscribers
    num_targets = view.num_targets
    wvec = np.ones(m) if view.weights is None \
        else view.weights.astype(float)
    caps = np.floor(view.beta * view.kappas_effective
                    * float(wvec.sum())).astype(int)
    caps = np.maximum(caps, 1)

    # Per (broker, rect): which subscribers that broker covers via it.
    rect_masks: list[list[np.ndarray]] = []
    cover = np.zeros((num_targets, m), dtype=bool)
    for i, rects in enumerate(filters):
        if len(rects) == 0:
            rect_masks.append([])
            continue
        contains = rects.containment_matrix(view.subscriptions)  # (u, m)
        masks = [contains[k] & view.feasible[i] for k in range(len(rects))]
        rect_masks.append(masks)
        if masks:
            cover[i] = np.logical_or.reduce(masks)
    cover_count = cover.sum(axis=0).astype(int)

    # Exclusive demand per broker: subscribers covered by it alone.
    exclusive = np.zeros(num_targets)
    solo = cover_count == 1
    if solo.any():
        exclusive = cover[:, solo].astype(float) @ wvec[solo]

    keep: list[np.ndarray] = [np.ones(len(f), dtype=bool) for f in filters]
    order = sorted(
        ((float(filters[i].volumes()[k]), i, k)
         for i in range(len(filters)) for k in range(len(filters[i]))),
        reverse=True)
    for _volume, i, k in order:
        if not keep[i][k]:
            continue
        others = [rect_masks[i][k2] for k2 in range(len(filters[i]))
                  if k2 != k and keep[i][k2]]
        without = np.logical_or.reduce(others) if others \
            else np.zeros(m, dtype=bool)
        lost = rect_masks[i][k] & ~without
        if not lost.any():
            keep[i][k] = False        # fully redundant within the broker
            continue
        if (cover_count[lost] < 2).any():
            continue                  # someone would lose all coverage
        # Subscribers dropping to a single coverer add exclusive demand
        # to that remaining broker; reject if any broker would overflow.
        dropping = np.flatnonzero(lost & (cover_count == 2))
        increments = np.zeros(num_targets)
        if len(dropping):
            remaining = cover[:, dropping]    # fancy indexing: a copy
            remaining[i] = False
            increments = np.bincount(remaining.argmax(axis=0),
                                     weights=wvec[dropping],
                                     minlength=num_targets)
        if np.any(exclusive + increments > caps):
            continue
        # Aggregate guard: splitting every subscriber evenly among its
        # coverers must not push any broker past its desired-lbf capacity
        # (brokers already past it must at least not get worse).
        trial_cover = cover.copy()
        trial_cover[i] = without
        trial_count = cover_count.copy()
        trial_count[lost] -= 1
        demand = trial_cover @ (wvec / trial_count)
        current_demand = cover @ (wvec / cover_count)
        limit = np.maximum(1.1 * caps, current_demand + 1e-9)
        if np.any(demand > limit):
            continue
        keep[i][k] = False
        cover[i] = without
        cover_count[lost] = trial_count[lost]
        exclusive += increments
        exclusive[i] = float((cover[i] & (cover_count == 1)).astype(float)
                             @ wvec)
    return [filters[i].take(np.flatnonzero(keep[i])) if keep[i].any()
            else RectSet.empty(view.subscriptions.dim)
            for i in range(len(filters))]


def filter_assign(view: SLPView, rng: np.random.Generator,
                  config: FilterAssignConfig | None = None) -> FilterAssignResult:
    """Algorithm 1: a preliminary filter per target covering all subscribers."""
    config = config or FilterAssignConfig()
    started = time.perf_counter()
    m = view.num_subscribers
    info: dict[str, Any] = {"lp_calls": 0, "lp_infeasible": 0, "stages": 0,
                            "iterations": 0}

    if not view.feasible.any(axis=0).all():
        # Some subscriber has no latency-feasible target at all; the SA
        # instance is infeasible regardless of filters.
        info["infeasible_latency"] = True
        return _fallback(view, started, info)

    best: FilterAssignResult | None = None
    best_unrouted = np.inf
    floor: int | None = None      #: routing_floor(view), once needed
    consecutive_helper_failures = 0

    g = min(config.initial_g, m)
    while g <= m and info["iterations"] < config.max_total_iterations:
        info["stages"] += 1
        # Reweighted-sampling weights; weighted views start from their
        # member counts so heavy super-subscriptions enter the sample
        # with the probability their members would have had.
        weights = np.ones(m) if view.weights is None \
            else view.weights.astype(float).copy()
        budget = max(1, math.ceil(config.iteration_factor * g
                                  * math.log(max(m / g, math.e))))
        budget = min(budget, config.max_stage_iterations)
        for _iteration in range(budget):
            if info["iterations"] >= config.max_total_iterations:
                break
            info["iterations"] += 1
            violators = np.empty(0, dtype=int)
            for _retry in range(config.max_invalid_retries):
                q = max(1, math.ceil(config.sample_factor * g
                                     * math.log(max(g, 2))))
                sample = _weighted_sample(rng, weights, q)
                helper = _run_helper(view, sample, rng, config, info)
                if helper is None:
                    # An unlucky sample can make the LP infeasible (e.g. a
                    # load-balance draw conflicting with latency); treat it
                    # as an invalid iteration and re-sample, giving up only
                    # after several failures in a row.
                    consecutive_helper_failures += 1
                    info["helper_failures"] = info.get("helper_failures", 0) + 1
                    if consecutive_helper_failures >= config.helper_retries * 2:
                        return _finish(best, info) if best is not None \
                            else _fallback(view, started, info)
                    continue
                consecutive_helper_failures = 0
                filters, fractional = helper

                expanded = [rects.expand(config.eps) for rects in filters]
                with span("coverage_check"):
                    uncovered = view.uncovered(expanded)
                load_violators = np.empty(0, dtype=int)
                if len(uncovered) == 0:
                    with span("prune"):
                        pruned = prune_redundant_rects(view, expanded)
                    candidate = FilterAssignResult(
                        filters=pruned,
                        fractional_objective=fractional,
                        info=dict(info,
                                  certificate_size=len(sample),
                                  final_g=g,
                                  rects_before_prune=sum(len(f) for f in expanded),
                                  rects_after_prune=sum(len(f) for f in pruned)))
                    if not config.require_load_feasible:
                        candidate.info["runtime_seconds"] = \
                            time.perf_counter() - started
                        return _finish(candidate, info)
                    # Acceptance additionally requires a load-feasible
                    # assignment; unrouted subscribers become violators so
                    # the reweighting steers future samples toward them.
                    with span("assign"):
                        outcome = candidate.outcome = _assign(view, pruned)
                    unrouted = outcome.info["unrouted"]
                    if outcome.feasible:
                        candidate.info["runtime_seconds"] = \
                            time.perf_counter() - started
                        return _finish(candidate, info)
                    # No filter can route more than a max-flow over the
                    # latency-feasible edges: accept a candidate at that
                    # floor.  Weighted views pack groups, which is not a
                    # flow, so they keep searching.
                    if floor is None and view.weights is None:
                        with span("assign"):
                            floor = routing_floor(view)
                    if floor is not None and unrouted <= floor:
                        candidate.info.update(
                            runtime_seconds=time.perf_counter() - started,
                            accepted_with_unrouted=unrouted)
                        return _finish(candidate, info)
                    if unrouted < best_unrouted:
                        best_unrouted = unrouted
                        best = candidate
                    load_violators = outcome.unrouted_subscribers

                with span("coverage_check"):
                    unexpanded_uncovered = view.uncovered(filters)
                violators = np.union1d(unexpanded_uncovered, load_violators)
                if len(violators) == 0 \
                        or weights[violators].sum() <= config.eps * weights.sum():
                    break  # valid iteration
            else:
                break  # no valid draw: g is too small (Lemmas 2 and 3)
            if len(violators):
                weights[violators] *= 2.0
        g *= 2

    if best is not None:
        best.info["runtime_seconds"] = time.perf_counter() - started
        best.info["accepted_with_unrouted"] = best_unrouted
        return _finish(best, info)
    return _fallback(view, started, info)
