"""Tests for the LP relaxation and randomized rounding (LPRelax)."""

import numpy as np
import pytest

from repro.core.slp.lp_relax import lp_relax
from repro.geometry import RectSet


def two_cluster_instance():
    """4 subscriptions in two tight clusters; 2 brokers; 3 candidates.

    The obvious optimum: each broker takes one cluster rectangle; the big
    rectangle (covering everything) is wasteful.
    """
    subs = RectSet(
        np.array([[0.0, 0.0], [1.0, 1.0], [50.0, 50.0], [51.0, 51.0]]),
        np.array([[2.0, 2.0], [3.0, 3.0], [52.0, 52.0], [53.0, 53.0]]))
    rects = RectSet(
        np.array([[0.0, 0.0], [50.0, 50.0], [0.0, 0.0]]),
        np.array([[3.0, 3.0], [53.0, 53.0], [53.0, 53.0]]))
    feasible = np.ones((2, 4), dtype=bool)
    sb_mask = np.ones(4, dtype=bool)
    kappas = np.array([0.5, 0.5])
    return subs, rects, feasible, sb_mask, kappas


class TestLPRelax:
    def test_finds_cheap_cover(self, rng):
        subs, rects, feasible, sb_mask, kappas = two_cluster_instance()
        outcome = lp_relax(subs, feasible, sb_mask, rects, kappas,
                           alpha=1, beta=1.2, rng=rng)
        assert outcome is not None
        # Fractional optimum: the two cluster rects (volume 9 each).
        assert outcome.fractional_objective == pytest.approx(18.0, rel=1e-6)

    def test_rounded_filters_cover_sample(self, rng):
        subs, rects, feasible, sb_mask, kappas = two_cluster_instance()
        outcome = lp_relax(subs, feasible, sb_mask, rects, kappas,
                           alpha=1, beta=1.2, rng=rng)
        contain = [f.containment_matrix(subs).any(axis=0) if len(f) else
                   np.zeros(len(subs), dtype=bool) for f in outcome.filters]
        covered = np.logical_or.reduce([c & feasible[i]
                                        for i, c in enumerate(contain)])
        assert covered.all()

    def test_latency_infeasible_returns_none(self, rng):
        subs, rects, _, sb_mask, kappas = two_cluster_instance()
        feasible = np.zeros((2, 4), dtype=bool)  # nobody can serve anyone
        outcome = lp_relax(subs, feasible, sb_mask, rects, kappas,
                           alpha=1, beta=1.2, rng=rng)
        assert outcome is None

    def test_containment_infeasible_returns_none(self, rng):
        subs, _, feasible, sb_mask, kappas = two_cluster_instance()
        tiny = RectSet(np.array([[200.0, 200.0]]), np.array([[201.0, 201.0]]))
        outcome = lp_relax(subs, feasible, sb_mask, tiny, kappas,
                           alpha=1, beta=1.2, rng=rng)
        assert outcome is None

    def test_load_balance_constrains_fraction(self, rng):
        """With a hard beta, one broker cannot fractionally serve everyone."""
        subs, rects, feasible, sb_mask, kappas = two_cluster_instance()
        # beta=1 -> each broker serves exactly half of Sb fractionally.
        outcome = lp_relax(subs, feasible, sb_mask, rects, kappas,
                           alpha=1, beta=1.0, rng=rng)
        assert outcome is not None
        # Both brokers need some filter mass.
        y = outcome.y_fractional
        assert (y.sum(axis=1) > 1e-6).all()

    def test_fractional_lower_bounds_rounded(self, rng):
        subs, rects, feasible, sb_mask, kappas = two_cluster_instance()
        outcome = lp_relax(subs, feasible, sb_mask, rects, kappas,
                           alpha=2, beta=1.5, rng=rng)
        rounded_total = sum(float(f.volumes().sum())
                            for f in outcome.filters)
        assert outcome.fractional_objective <= rounded_total + 1e-9

    def test_alpha_constraint_fractional(self, rng):
        subs, rects, feasible, sb_mask, kappas = two_cluster_instance()
        outcome = lp_relax(subs, feasible, sb_mask, rects, kappas,
                           alpha=1, beta=1.5, rng=rng)
        assert (outcome.y_fractional.sum(axis=1) <= 1.0 + 1e-6).all()

    def test_shape_mismatch_rejected(self, rng):
        subs, rects, feasible, sb_mask, kappas = two_cluster_instance()
        with pytest.raises(ValueError):
            lp_relax(subs, feasible, sb_mask[:2], rects, kappas,
                     alpha=1, beta=1.5, rng=rng)

    def test_single_subscriber_single_broker(self, rng):
        subs = RectSet(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        rects = subs
        outcome = lp_relax(subs, np.ones((1, 1), dtype=bool),
                           np.ones(1, dtype=bool), rects,
                           np.array([1.0]), alpha=1, beta=1.5, rng=rng)
        assert outcome is not None
        assert outcome.fractional_objective == pytest.approx(1.0)
        assert len(outcome.filters[0]) >= 1


def reference_assembly(feasible, sb_mask, contain, u, kappas, alpha, beta):
    """The original per-row Python-loop constraint assembly, kept as the
    ground truth the vectorized ``_assemble_constraints`` must reproduce
    exactly (same rows in the same order, same floats)."""
    from scipy import sparse

    num_brokers, m = feasible.shape
    num_y = num_brokers * u
    pair_broker, pair_sub = np.nonzero(feasible)
    num_x = len(pair_broker)
    x_index = {(int(i), int(j)): num_y + t
               for t, (i, j) in enumerate(zip(pair_broker, pair_sub))}

    rows, cols, vals, b_ub = [], [], [], []
    row = 0
    for i in range(num_brokers):
        rows.extend([row] * u)
        cols.extend(i * u + k for k in range(u))
        vals.extend([1.0] * u)
        b_ub.append(float(alpha))
        row += 1
    for j in range(m):
        brokers_j = np.flatnonzero(feasible[:, j])
        rows.extend([row] * len(brokers_j))
        cols.extend(x_index[(int(i), j)] for i in brokers_j)
        vals.extend([-1.0] * len(brokers_j))
        b_ub.append(-1.0)
        row += 1
    sb_count = int(sb_mask.sum())
    if sb_count:
        for i in range(num_brokers):
            members = np.flatnonzero(feasible[i] & sb_mask)
            if len(members) == 0:
                continue
            rows.extend([row] * len(members))
            cols.extend(x_index[(i, int(j))] for j in members)
            vals.extend([1.0] * len(members))
            b_ub.append(beta * float(kappas[i]) * sb_count)
            row += 1
    rect_lists = [np.flatnonzero(contain[:, j]) for j in range(m)]
    for t in range(num_x):
        i, j = int(pair_broker[t]), int(pair_sub[t])
        ks = rect_lists[j]
        rows.append(row)
        cols.append(num_y + t)
        vals.append(1.0)
        rows.extend([row] * len(ks))
        cols.extend(i * u + int(k) for k in ks)
        vals.extend([-1.0] * len(ks))
        b_ub.append(0.0)
        row += 1
    a_ub = sparse.coo_matrix((vals, (rows, cols)),
                             shape=(row, num_y + num_x)).tocsr()
    return a_ub, np.asarray(b_ub, dtype=float)


def as_scipy(a):
    """The scipy matrix of the CSC arrays ``_assemble_constraints`` returns."""
    from scipy import sparse

    return sparse.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def random_assembly_case(seed):
    """A random (feasible, sb_mask, contain, u, kappas, alpha, beta)."""
    gen = np.random.default_rng(seed)
    num_brokers = int(gen.integers(2, 6))
    m = int(gen.integers(4, 20))
    u = int(gen.integers(2, 12))
    feasible = gen.random((num_brokers, m)) < 0.6
    feasible[gen.integers(num_brokers), :] = True  # everyone coverable
    sb_mask = gen.random(m) < 0.7
    contain = gen.random((u, m)) < 0.4
    contain[gen.integers(u), :] = True
    kappas = gen.random(num_brokers) + 0.1
    alpha, beta = int(gen.integers(1, 4)), float(gen.uniform(1.0, 2.0))
    return feasible, sb_mask, contain, u, kappas, alpha, beta


class TestVectorizedAssembly:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop_reference_exactly(self, seed):
        from repro.core.slp.lp_relax import _assemble_constraints

        feasible, sb_mask, contain, u, kappas, alpha, beta = \
            random_assembly_case(seed)
        num_brokers = feasible.shape[0]
        pair_broker, pair_sub = np.nonzero(feasible)
        num_y = num_brokers * u
        fast_a, fast_b = _assemble_constraints(
            feasible, sb_mask, contain, num_y, u, pair_broker, pair_sub,
            kappas, alpha, beta)
        fast_a = as_scipy(fast_a)
        ref_a, ref_b = reference_assembly(
            feasible, sb_mask, contain, u, kappas, alpha, beta)

        assert fast_a.shape == ref_a.shape
        assert np.array_equal(fast_b, ref_b)
        assert (fast_a != ref_a).nnz == 0
        # Same floats row for row, not merely an equivalent matrix.
        assert np.array_equal(fast_a.toarray(), ref_a.toarray())

    @pytest.mark.parametrize("seed", range(6))
    def test_arrays_are_scipys_csc(self, seed):
        # HiGHS gets exactly the arrays scipy's COO -> CSR -> CSC gives:
        # int32 indices, rows ascending within each column.
        from repro.core.slp.lp_relax import _assemble_constraints

        feasible, sb_mask, contain, u, kappas, alpha, beta = \
            random_assembly_case(seed)
        pair_broker, pair_sub = np.nonzero(feasible)
        fast_a, _ = _assemble_constraints(
            feasible, sb_mask, contain, feasible.shape[0] * u, u,
            pair_broker, pair_sub, kappas, alpha, beta)
        ref_a, _ = reference_assembly(
            feasible, sb_mask, contain, u, kappas, alpha, beta)
        ref_a = ref_a.tocsc()
        assert fast_a.shape == ref_a.shape
        assert fast_a.indptr.dtype == fast_a.indices.dtype == np.int32
        assert np.array_equal(fast_a.indptr, ref_a.indptr)
        assert np.array_equal(fast_a.indices, ref_a.indices)
        assert np.array_equal(fast_a.data, ref_a.data)

    def test_empty_sb_mask(self):
        from repro.core.slp.lp_relax import _assemble_constraints

        feasible = np.ones((2, 3), dtype=bool)
        sb_mask = np.zeros(3, dtype=bool)
        contain = np.ones((2, 3), dtype=bool)
        pair_broker, pair_sub = np.nonzero(feasible)
        fast_a, fast_b = _assemble_constraints(
            feasible, sb_mask, contain, 4, 2, pair_broker, pair_sub,
            np.array([0.5, 0.5]), 1, 1.5)
        fast_a = as_scipy(fast_a)
        ref_a, ref_b = reference_assembly(
            feasible, sb_mask, contain, 2, np.array([0.5, 0.5]), 1, 1.5)
        assert np.array_equal(fast_b, ref_b)
        assert np.array_equal(fast_a.toarray(), ref_a.toarray())
