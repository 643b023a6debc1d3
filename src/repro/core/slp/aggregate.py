"""Subscription aggregation: super-subscriptions ahead of the LP.

The LP relaxation's cost grows superlinearly with the sample size, and
FilterAssign's coverage checks touch every subscription; at
``m ~ 10^5`` the unaggregated pipeline is the bottleneck.  Following
the aggregation observation of Shi et al. (arXiv:1811.07088), this
module compresses the subscription set into **super-subscriptions**
before SLP1's core runs, then expands the result back to exact
per-subscriber assignments:

1. **Group** subscriptions by their latency-feasibility signature (the
   Boolean column of ``view.feasible``), so every member of a group is
   feasible for exactly the targets its super-subscription is — member
   expansion can never violate latency.  Within a signature group,
   recursive k-means over the joint (event, network) features (reusing
   :mod:`repro.geometry.clustering`) splits until groups have at most
   ``max_group_size`` members, keeping groups geometrically tight.
2. **Summarize** each group as its members' minimum enclosing box (so a
   filter covering the super-subscription covers every member — the
   nesting direction is monotone), the member-centroid network point,
   and the member count as its *weight*.
3. **Solve** FilterAssign + the weighted LP + the weighted (bin-packing)
   assignment on the aggregated view, with load budgets expressed in
   real-subscriber units so capacities match the unaggregated instance
   exactly.
4. **Expand** the group assignment to members (lossless: every member
   appears exactly once) and repair any residual load overflow at
   member granularity with the same augmenting-path machinery the
   multilevel rebalance uses.  The repair is exact — final solutions
   satisfy the paper's constraints, not an aggregated surrogate.

The approximation contract: aggregation only coarsens *bandwidth* (the
LP sees group MEBs instead of raw boxes, so filters may be larger); it
never relaxes coverage, latency, complexity, or the beta_max load caps.
With ``max_group_size <= 1`` (or ``m <= min_subscribers``) aggregation
is the identity and consumes no randomness, so the pipeline is
bit-identical to the unaggregated one — the equivalence tests pin this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ...geometry import RectSet
from ...geometry.clustering import kmeans
from ...perf.profiler import span
from .assign_flow import AssignmentOutcome, _augment, _CovererCSR
from .filtergen import _joint_features
from .sampling import (
    FilterAssignConfig,
    FilterAssignResult,
    assignment_outcome,
    filter_assign,
)
from .view import SLPView

__all__ = ["AggregationConfig", "Aggregation", "AggregatedDistribution",
           "aggregate_subscriptions", "verify_aggregation",
           "expand_assignment", "distribute_aggregated"]


@dataclass(frozen=True)
class AggregationConfig:
    """Tunables of the subscription aggregator.

    ``max_group_size`` is the aggregation threshold: the largest number
    of subscriptions one super-subscription may absorb.  ``<= 1``
    disables aggregation entirely (the identity), as does any view with
    at most ``min_subscribers`` subscriptions — small instances gain
    nothing and keep their exact pipeline.  ``fanout`` bounds the
    k-means branching of the recursive splitter.
    """

    max_group_size: int = 64
    min_subscribers: int = 2048
    fanout: int = 8

    @property
    def enabled(self) -> bool:
        return self.max_group_size > 1


@dataclass
class Aggregation:
    """A partition of a view's subscriptions into super-subscriptions."""

    labels: np.ndarray              #: (m,) group row per subscription
    members: list[np.ndarray]       #: per group, sorted member indices
    super_subs: RectSet             #: (g,) member-union MEBs
    network_points: np.ndarray      #: (g, d_net) member centroids
    weights: np.ndarray             #: (g,) member counts
    feasible: np.ndarray            #: (n_targets, g) group feasibility
    is_identity: bool

    @property
    def num_groups(self) -> int:
        return len(self.members)


@dataclass
class AggregatedDistribution:
    """Result of one aggregated SLP1 core run over a view."""

    target_of: np.ndarray           #: (m,) per-subscriber target row
    fractional_objective: float | None
    aggregation: Aggregation
    preliminary: FilterAssignResult
    outcome: AssignmentOutcome      #: group-level (or member-level) flow
    info: dict[str, Any] = field(default_factory=dict)


def _identity_aggregation(view: SLPView) -> Aggregation:
    m = view.num_subscribers
    return Aggregation(
        labels=np.arange(m),
        members=[np.array([j]) for j in range(m)],
        super_subs=view.subscriptions,
        network_points=view.network_points,
        weights=np.ones(m, dtype=np.int64),
        feasible=view.feasible,
        is_identity=True,
    )


def _split_indices(indices: np.ndarray, features: np.ndarray,
                   config: AggregationConfig,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """Recursively split one signature group to ``<= max_group_size``."""
    out: list[np.ndarray] = []
    stack = [indices]
    while stack:
        current = stack.pop()
        if len(current) <= config.max_group_size:
            out.append(np.sort(current))
            continue
        feats = features[current]
        if np.all(feats == feats[0]):
            # Degenerate: identical coordinates carry no geometry to
            # split on; even chunking is exact and consumes no RNG.
            pieces = np.array_split(
                current, math.ceil(len(current) / config.max_group_size))
            out.extend(np.sort(piece) for piece in pieces if len(piece))
            continue
        k = min(config.fanout,
                math.ceil(len(current) / config.max_group_size))
        k = max(k, 2)
        labels, _centers = kmeans(feats, k, rng)
        for cluster in range(int(labels.max()) + 1):
            piece = current[labels == cluster]
            if len(piece) == 0:
                continue
            if len(piece) == len(current):  # no progress: chunk instead
                stack.extend(np.array_split(
                    piece, math.ceil(len(piece) / config.max_group_size)))
            else:
                stack.append(piece)
    return out


def aggregate_subscriptions(view: SLPView, config: AggregationConfig,
                            rng: np.random.Generator) -> Aggregation:
    """Partition a view's subscriptions into super-subscriptions.

    Groups never cross latency-feasibility signatures, so a group is
    feasible for a target iff every member is.  The identity cases
    (threshold ``<= 1`` or a small view) return **before any RNG use**,
    keeping the downstream random stream — and therefore the whole
    pipeline — bit-identical to the unaggregated run.
    """
    m = view.num_subscribers
    if not config.enabled or m <= config.min_subscribers:
        return _identity_aggregation(view)

    signatures = np.packbits(view.feasible, axis=0).T
    _uniq, signature_of = np.unique(signatures, axis=0, return_inverse=True)
    features = _joint_features(view.subscriptions, view.network_points)

    groups: list[np.ndarray] = []
    for sig in range(int(signature_of.max()) + 1):
        indices = np.flatnonzero(signature_of == sig)
        groups.extend(_split_indices(indices, features, config, rng))
    groups.sort(key=lambda g: int(g[0]))  # canonical order

    num_groups = len(groups)
    labels = np.empty(m, dtype=np.int64)
    weights = np.empty(num_groups, dtype=np.int64)
    lo = np.empty((num_groups, view.subscriptions.dim))
    hi = np.empty((num_groups, view.subscriptions.dim))
    network = np.empty((num_groups, view.network_points.shape[1]))
    representative = np.empty(num_groups, dtype=np.int64)
    for row, members in enumerate(groups):
        labels[members] = row
        weights[row] = len(members)
        lo[row] = view.subscriptions.lo[members].min(axis=0)
        hi[row] = view.subscriptions.hi[members].max(axis=0)
        network[row] = view.network_points[members].mean(axis=0)
        representative[row] = members[0]

    return Aggregation(
        labels=labels,
        members=groups,
        super_subs=RectSet(lo, hi, validate=False),
        network_points=network,
        weights=weights,
        feasible=view.feasible[:, representative],
        is_identity=False,
    )


def expand_assignment(aggregation: Aggregation,
                      group_targets: np.ndarray) -> np.ndarray:
    """Per-subscriber targets from per-group targets (lossless)."""
    return np.asarray(group_targets)[aggregation.labels]


def verify_aggregation(view: SLPView, aggregation: Aggregation) -> list[str]:
    """Check the aggregation invariants; returns violation descriptions.

    * the groups partition the subscription set (member expansion is
      lossless — every subscriber appears in exactly one group);
    * every super-subscription rectangle is exactly the minimum
      enclosing box of its members (no slack, no clipping);
    * weights equal member counts;
    * feasibility signatures are pure: each member's feasibility column
      equals its group's.
    """
    problems: list[str] = []
    m = view.num_subscribers
    labels = aggregation.labels
    if labels.shape != (m,):
        return [f"labels shape {labels.shape} != ({m},)"]

    seen = np.concatenate(aggregation.members) if aggregation.members \
        else np.empty(0, dtype=np.int64)
    if len(seen) != m or not np.array_equal(np.sort(seen), np.arange(m)):
        problems.append("members do not partition the subscription set")
    for row, members in enumerate(aggregation.members):
        if len(members) == 0:
            problems.append(f"group {row} is empty")
            continue
        if not np.all(labels[members] == row):
            problems.append(f"group {row}: labels disagree with members")
        if int(aggregation.weights[row]) != len(members):
            problems.append(
                f"group {row}: weight {int(aggregation.weights[row])} "
                f"!= {len(members)} members")
        member_lo = view.subscriptions.lo[members]
        member_hi = view.subscriptions.hi[members]
        if not (np.array_equal(aggregation.super_subs.lo[row],
                               member_lo.min(axis=0))
                and np.array_equal(aggregation.super_subs.hi[row],
                                   member_hi.max(axis=0))):
            problems.append(
                f"group {row}: super-subscription is not the exact "
                "member-union MEB")
        member_feasible = view.feasible[:, members]
        if not np.array_equal(
                member_feasible,
                np.repeat(aggregation.feasible[:, row][:, None],
                          len(members), axis=1)):
            problems.append(
                f"group {row}: mixed latency-feasibility signatures")
    return problems


def _repair_members(view: SLPView, filters: list[RectSet],
                    member_targets: np.ndarray,
                    info: dict[str, Any]) -> np.ndarray:
    """Exact member-level load repair after expansion.

    Group assignment packs indivisible groups, so a target can end up
    over its member-unit cap.  This evicts the overflow and re-routes it
    over member-level coverage with augmenting paths, escalating the lbf
    from ``beta`` to ``beta_max`` — the same machinery (and guarantees)
    as the multilevel global rebalance.
    """
    m = view.num_subscribers
    num_targets = view.num_targets
    kappas = view.kappas_effective

    def caps_at(b: float) -> np.ndarray:
        return np.maximum(np.floor(b * kappas * m), 0).astype(np.int64)

    betabar = view.beta
    hard_caps = caps_at(view.beta_max)
    loads = np.bincount(member_targets, minlength=num_targets)
    if (loads <= hard_caps).all():
        info["repaired"] = 0
        return member_targets

    coverage = view.coverage(filters)
    coverers: list[np.ndarray] = []
    for j in range(m):
        options = np.flatnonzero(coverage[:, j])
        if len(options) == 0:
            options = np.flatnonzero(view.feasible[:, j])
        if len(options) == 0:
            options = np.arange(num_targets)
        coverers.append(options)

    assigned = member_targets.copy()
    subs_of: list[set[int]] = [set() for _ in range(num_targets)]
    stranded: list[int] = []
    loads = np.zeros(num_targets, dtype=np.int64)
    for j in range(m):
        target = int(assigned[j])
        if loads[target] < hard_caps[target]:
            loads[target] += 1
            subs_of[target].add(j)
        else:
            assigned[j] = -1
            stranded.append(j)

    caps = caps_at(betabar)
    remaining = stranded
    csr = _CovererCSR(coverers)
    while remaining:
        still: list[int] = []
        saturated = np.zeros(num_targets, dtype=bool)
        for j in remaining:
            if not _augment(j, csr, assigned, loads, caps, subs_of,
                            num_targets, saturated=saturated):
                still.append(j)
        if not still:
            remaining = still
            break
        if betabar >= view.beta_max:
            remaining = still
            break
        betabar = min(betabar * 1.05, view.beta_max)
        caps = caps_at(betabar)
        remaining = still

    for j in remaining:  # best effort: least relative load
        options = coverers[j]
        relative = loads[options] / np.maximum(kappas[options], 1e-12)
        pick = int(options[relative.argmin()])
        assigned[j] = pick
        loads[pick] += 1

    info["repaired"] = len(stranded)
    info["repair_unrouted"] = len(remaining)
    return assigned


def distribute_aggregated(view: SLPView, rng: np.random.Generator,
                          config: FilterAssignConfig | None = None,
                          aggregation: AggregationConfig | None = None,
                          ) -> AggregatedDistribution:
    """One SLP1 core run (FilterAssign + assignment) with aggregation.

    When the aggregation is the identity this runs exactly the
    unaggregated pipeline — same calls, same spans, same RNG stream —
    so threshold-0 runs are bit-identical to it.
    """
    agg_config = aggregation or AggregationConfig()
    with span("aggregate"):
        agg = aggregate_subscriptions(view, agg_config, rng)

    if agg.is_identity:
        preliminary = filter_assign(view, rng, config)
        outcome = assignment_outcome(view, preliminary)
        return AggregatedDistribution(
            target_of=outcome.target_of,
            fractional_objective=preliminary.fractional_objective,
            aggregation=agg,
            preliminary=preliminary,
            outcome=outcome,
            info={"groups": agg.num_groups, "identity": True},
        )

    agg_view = SLPView(
        subscriptions=agg.super_subs,
        network_points=agg.network_points,
        feasible=agg.feasible,
        kappas_effective=view.kappas_effective,
        alpha=view.alpha,
        beta=view.beta,
        beta_max=view.beta_max,
        weights=agg.weights.astype(np.float64),
    )
    preliminary = filter_assign(agg_view, rng, config)
    outcome = assignment_outcome(agg_view, preliminary)

    info: dict[str, Any] = {
        "groups": agg.num_groups,
        "identity": False,
        "compression": view.num_subscribers / max(agg.num_groups, 1),
        "group_assignment": outcome.info,
    }
    with span("expand"):
        member_targets = expand_assignment(agg, outcome.target_of)
        member_targets = _repair_members(view, preliminary.filters,
                                         member_targets, info)
    return AggregatedDistribution(
        target_of=member_targets,
        fractional_objective=preliminary.fractional_objective,
        aggregation=agg,
        preliminary=preliminary,
        outcome=outcome,
        info=info,
    )
