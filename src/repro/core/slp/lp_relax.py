"""LP relaxation and randomized rounding — LPRelax (paper Section IV-A.1).

The mixed integer program over Boolean ``x_ij`` (subscriber ``j`` served
by broker ``i``) and ``y_ik`` (rectangle ``k`` in broker ``i``'s filter):

    minimize    sum_{i,k} Vol(R_k) * y_ik
    subject to  (C1) sum_k y_ik <= alpha                      for each broker i
                (C2) sum_{i in B_j} x_ij >= 1                 for each j in Sa
                (C3) sum_{j in Sb} x_ij <= beta kappa_i |Sb|  for each broker i
                (C4) x_ij <= sum_{k in R_j} y_ik              for feasible (i, j)

is relaxed to an LP (variables in ``[0, 1]``) and solved with HiGHS
(:mod:`repro.perf.fastlp`) on a compressed-column constraint matrix.
The fractional optimum is the *lower bound* the paper uses as its
yardstick by-product.  The ``y`` variables are then rounded:
``y_ik = 1`` with probability
``1 - (1 - yhat)^{2 ln |Sa|}``, re-rounding until the sample ``Sa`` is
covered (each attempt succeeds with probability >= 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...geometry import RectSet
from ...perf.fastlp import CSCMatrix, solve_bounded_lp
from ...perf.profiler import span
from .assign_flow import _grouped_ranges

__all__ = ["LPOutcome", "lp_relax"]

#: Rounding attempts before deterministically force-covering the sample.
_MAX_ROUNDING_ATTEMPTS = 20


@dataclass
class LPOutcome:
    """Result of one LPRelax call.

    ``filters[i]`` is the preliminary rectangle set of broker ``i`` (its
    complexity may exceed ``alpha``; the adjustment step fixes that).
    ``fractional_objective`` is the LP lower bound with respect to the
    sample and candidate set.
    """

    filters: list[RectSet]
    fractional_objective: float
    y_fractional: np.ndarray          #: (num_brokers, num_rects)
    rounding_attempts: int
    forced_rects: int                 #: rects switched on by the fallback


def _coverage_possible(feasible: np.ndarray, contain: np.ndarray) -> np.ndarray:
    """Mask over the sample: does any (broker, rect) pair cover subscriber j?"""
    # feasible: (n, m); contain: (u, m).  j is coverable iff it has at least
    # one feasible broker and one containing rectangle (any broker may take
    # any rectangle, so the conditions separate).
    return feasible.any(axis=0) & contain.any(axis=0)


def _assemble_constraints(feasible: np.ndarray, sb_mask: np.ndarray,
                          contain: np.ndarray, num_y: int, u: int,
                          pair_broker: np.ndarray, pair_sub: np.ndarray,
                          kappas: np.ndarray, alpha: int, beta: float,
                          weights: np.ndarray | None = None,
                          ) -> tuple[CSCMatrix, np.ndarray]:
    """Build ``A_ub x <= b_ub`` for C1-C4 with pure index arithmetic.

    Variable layout (matching the docstring): y variables broker-major
    (``y_ik -> i * u + k``), then one x variable per feasible (i, j) pair
    in ``np.nonzero(feasible)`` (broker-major) order.  Rows are C1, C2,
    C3, C4 in that order — the exact matrix the per-row Python loops used
    to produce, so the LP (and everything downstream of its optimum) is
    bit-identical to the pre-vectorization implementation.  It comes back
    in canonical compressed-column form (rows ascending within each
    column, no duplicates), the arrays scipy's COO -> CSR -> CSC
    conversion gives.
    """
    num_brokers, m = feasible.shape
    num_x = len(pair_broker)

    # (C1) filter complexity: one row per broker over its y block.
    c1_rows = np.repeat(np.arange(num_brokers), u)
    c1_cols = np.arange(num_y)
    c1_vals = np.ones(num_y)
    c1_b = np.full(num_brokers, float(alpha))
    row = num_brokers

    # (C2) coverage, as -sum x <= -1: one row per sample subscriber over
    # its feasible x variables (stable sort keeps brokers ascending).
    by_sub = np.argsort(pair_sub, kind="stable")
    c2_rows = row + pair_sub[by_sub]
    c2_cols = num_y + by_sub
    c2_vals = -np.ones(num_x)
    c2_b = -np.ones(m)
    row += m

    # (C3) load balance over Sb: one row per broker with >= 1 Sb member.
    # With weights (aggregated super-subscriptions) each x variable
    # carries its member count and the budget runs over the represented
    # real subscribers; the unweighted branch is the exact original code.
    sb_count = int(sb_mask.sum())
    if sb_count:
        t_sb = np.flatnonzero(sb_mask[pair_sub])
        sb_brokers = pair_broker[t_sb]
        members_per_broker = np.bincount(sb_brokers, minlength=num_brokers)
        has_members = members_per_broker > 0
        compacted = np.cumsum(has_members) - 1 + row
        c3_rows = compacted[sb_brokers]
        c3_cols = num_y + t_sb
        if weights is None:
            c3_vals = np.ones(len(t_sb))
            c3_b = beta * kappas[has_members] * sb_count
        else:
            c3_vals = weights[pair_sub[t_sb]].astype(float)
            c3_b = beta * kappas[has_members] * float(weights[sb_mask].sum())
        row += int(has_members.sum())
    else:
        c3_rows = c3_cols = np.empty(0, dtype=int)
        c3_vals = c3_b = np.empty(0)

    # (C4) nesting: x_t - sum_{k: sigma_{j_t} in R_k} y_{i_t, k} <= 0.
    # Gather each pair's rectangle list from the (j, k) nonzeros of the
    # transposed containment matrix, which arrive sorted by j then k.
    nz_sub, nz_rect = np.nonzero(contain.T)
    rects_per_sub = np.bincount(nz_sub, minlength=m)
    rect_offsets = np.cumsum(rects_per_sub) - rects_per_sub
    rects_per_pair = rects_per_sub[pair_sub]
    c4_pos_rows = row + np.arange(num_x)
    c4_pos_cols = num_y + np.arange(num_x)
    gather = np.repeat(rect_offsets[pair_sub], rects_per_pair) \
        + _grouped_ranges(rects_per_pair)
    c4_neg_rows = np.repeat(c4_pos_rows, rects_per_pair)
    c4_neg_cols = np.repeat(pair_broker, rects_per_pair) * u + nz_rect[gather]
    row += num_x

    rows = np.concatenate([c1_rows, c2_rows, c3_rows, c4_pos_rows,
                           c4_neg_rows])
    cols = np.concatenate([c1_cols, c2_cols, c3_cols, c4_pos_cols,
                           c4_neg_cols])
    vals = np.concatenate([c1_vals, c2_vals, c3_vals, np.ones(num_x),
                           -np.ones(len(c4_neg_rows))])
    b_ub = np.concatenate([c1_b, c2_b, c3_b, np.zeros(num_x)])

    # Column-major order.  Every (row, column) pair above is distinct, and
    # within one column the entries already come in ascending row order
    # (a y column holds its C1 row, then C4 rows by pair; an x column its
    # C2, C3 and C4 rows), so a stable sort by column is the whole job.
    num_cols = num_y + num_x
    by_col = np.argsort(cols, kind="stable")
    indptr = np.zeros(num_cols + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(np.bincount(cols, minlength=num_cols))
    a_ub = CSCMatrix(indptr, rows[by_col].astype(np.int32), vals[by_col],
                     (row, num_cols))
    return a_ub, b_ub


def lp_relax(sub_rects: RectSet,
             feasible: np.ndarray,
             sb_mask: np.ndarray,
             rects: RectSet,
             kappas: np.ndarray,
             alpha: int,
             beta: float,
             rng: np.random.Generator,
             weights: np.ndarray | None = None) -> LPOutcome | None:
    """Solve the relaxed filter-assignment LP and round the filters.

    Parameters
    ----------
    sub_rects:
        Subscriptions of the sample ``Sa`` (size ``m``).
    feasible:
        ``(num_brokers, m)`` — latency feasibility of (broker, subscriber).
    sb_mask:
        ``(m,)`` — which sample members belong to the load-balance subset
        ``Sb`` (constraint C3 runs over these only).
    rects:
        Candidate rectangles ``R`` from FilterGen (size ``u``).
    kappas:
        Effective capacity fractions per broker (scaled by the caller for
        multi-level sub-problems).
    weights:
        Optional per-sample-member weights (member counts when the
        sample rows are super-subscriptions); C3 budgets then run in
        real-subscriber units.  ``None`` keeps the unweighted LP
        bit-identical to the original formulation.
    Returns ``None`` when the LP is infeasible.
    """
    num_brokers, m = feasible.shape
    u = len(rects)
    if m != len(sub_rects) or sb_mask.shape != (m,):
        raise ValueError("inconsistent sample shapes")

    contain = rects.containment_matrix(sub_rects)      # (u, m)
    if not _coverage_possible(feasible, contain).all():
        return None

    volumes = rects.volumes()

    # Variable layout: y variables first (broker-major, ``y_ik -> i*u+k``),
    # then x variables for each feasible (i, j) pair in nonzero order.
    num_y = num_brokers * u
    pair_broker, pair_sub = np.nonzero(feasible)
    num_x = len(pair_broker)

    with span("lp_assemble"):
        a_ub, b_ub = _assemble_constraints(feasible, sb_mask, contain,
                                           num_y, u, pair_broker, pair_sub,
                                           kappas, alpha, beta, weights)
    with span("lp_solve"):
        # The objective is built inside the stage so that the stage opens
        # well before the solver call: tracers that nest spans by time
        # then attribute the call to this stage.
        cost = np.zeros(num_y + num_x)
        cost[:num_y] = np.tile(volumes, num_brokers)
        result = solve_bounded_lp(cost, a_ub, b_ub)
    if not result.success:
        return None

    y_hat = result.x[:num_y].reshape(num_brokers, u)
    fractional = float(result.fun)

    # Randomized rounding with the paper's amplification exponent.
    exponent = max(2.0 * math.log(max(m, 2)), 1.0)
    keep_probability = 1.0 - np.power(np.clip(1.0 - y_hat, 0.0, 1.0), exponent)

    forced = 0
    with span("lp_round"):
        for attempt in range(1, _MAX_ROUNDING_ATTEMPTS + 1):
            chosen = rng.random(y_hat.shape) < keep_probability
            if _rounded_covers(chosen, feasible, contain):
                return LPOutcome(
                    filters=[rects.take(np.flatnonzero(chosen[i]))
                             for i in range(num_brokers)],
                    fractional_objective=fractional,
                    y_fractional=y_hat,
                    rounding_attempts=attempt,
                    forced_rects=0,
                )

        # Deterministic fallback: for each uncovered subscriber, switch on
        # the (broker, rect) pair with the largest fractional support.
        chosen = rng.random(y_hat.shape) < keep_probability
        for j in range(m):
            if _subscriber_covered(j, chosen, feasible, contain):
                continue
            brokers_j = np.flatnonzero(feasible[:, j])
            ks = np.flatnonzero(contain[:, j])
            support = y_hat[np.ix_(brokers_j, ks)]
            best = np.unravel_index(int(support.argmax()), support.shape)
            chosen[brokers_j[best[0]], ks[best[1]]] = True
            forced += 1
    return LPOutcome(
        filters=[rects.take(np.flatnonzero(chosen[i]))
                 for i in range(num_brokers)],
        fractional_objective=fractional,
        y_fractional=y_hat,
        rounding_attempts=_MAX_ROUNDING_ATTEMPTS,
        forced_rects=forced,
    )


def _rounded_covers(chosen: np.ndarray, feasible: np.ndarray,
                    contain: np.ndarray) -> bool:
    """Does the rounded filter assignment cover every sample subscriber?"""
    # covered(i, j) = feasible(i, j) and exists k: chosen(i, k) and contain(k, j)
    per_broker = chosen.astype(float) @ contain.astype(float)  # (n, m)
    return bool(((per_broker > 0) & feasible).any(axis=0).all())


def _subscriber_covered(j: int, chosen: np.ndarray, feasible: np.ndarray,
                        contain: np.ndarray) -> bool:
    brokers_j = np.flatnonzero(feasible[:, j])
    if len(brokers_j) == 0:
        return False
    ks = np.flatnonzero(contain[:, j])
    if len(ks) == 0:
        return False
    return bool(chosen[np.ix_(brokers_j, ks)].any())
