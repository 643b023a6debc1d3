"""The array forms of SLP's kernels against their per-item loop forms.

Every kernel below replaced a Python loop over points, boxes, slots or
subscribers; each test runs both forms on seeded inputs and demands
bit-identical output — labels, float bits, and violation lists in order.
The loop forms live in :mod:`tests.reference_loops`.
"""

import numpy as np
import pytest

from repro import ALGORITHMS
from repro.core.slp.assign_flow import _coverer_lists, _SlotState
from repro.geometry import RectSet, alpha_meb_cover, cluster_rects_to_mebs, kmeans
from repro.geometry.clustering import _cluster_means, _pairwise_sum_rows
from repro.verify import corrupt_latency, corrupt_nesting
from repro.verify.invariants import _check_assignment, _check_latency, _check_nesting

from .reference_loops import (
    alpha_meb_cover_reference,
    check_latency_reference,
    check_nesting_reference,
    cluster_rects_to_mebs_reference,
    kmeans_reference,
    slot_costs_reference,
)

DIMS = (1, 2, 4, 7, 8, 9, 15, 16, 17)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def point_sets(d, rng, count=12):
    """Seeded point clouds: generic, rounded (ties), and duplicated."""
    for case in range(count):
        n = int(rng.integers(1, 300))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0)
        if case % 3 == 1:
            pts = np.round(pts)              # many exact distance ties
        if case % 3 == 2:
            pts[: n // 2] = pts[0]           # a block of duplicate points
        yield pts, int(rng.integers(1, 25))


def box_sets(d, rng, count=10):
    """Seeded boxes, some with zero-width (degenerate) sides."""
    for case in range(count):
        n = int(rng.integers(1, 250))
        lo = np.round(rng.uniform(0.0, 50.0, size=(n, d)), 1)
        width = rng.exponential(5.0, size=(n, d))
        if case % 2 == 0:
            width[rng.random((n, d)) < 0.3] = 0.0
        yield RectSet(lo, lo + width), int(rng.integers(1, 12))


class TestPairwiseOrder:
    @pytest.mark.parametrize("d", range(1, 41))
    def test_matches_add_reduce_over_last_axis(self, d):
        """A change in numpy's summation order must fail here, loudly."""
        rng = np.random.default_rng(d)
        diff = rng.normal(size=(37, 5, d)) * 1e3
        diff *= diff
        expected = np.add.reduce(diff, axis=2)
        rows = np.ascontiguousarray(np.moveaxis(diff, 2, 0))
        assert same_bits(_pairwise_sum_rows(rows), expected)

    @pytest.mark.parametrize("d", (129, 200, 300))
    def test_recursive_split_above_128(self, d):
        rng = np.random.default_rng(d)
        diff = rng.normal(size=(4, 3, d))
        expected = np.add.reduce(diff, axis=2)
        rows = np.ascontiguousarray(np.moveaxis(diff, 2, 0))
        assert same_bits(_pairwise_sum_rows(rows), expected)


class TestKMeansIdentity:
    @pytest.mark.parametrize("d", DIMS)
    def test_labels_and_centers_bit_identical(self, d):
        rng = np.random.default_rng(100 + d)
        for pts, k in point_sets(d, rng):
            seed = int(rng.integers(1 << 30))
            labels, centers = kmeans(pts, k, np.random.default_rng(seed))
            ref_labels, ref_centers = kmeans_reference(
                pts, k, np.random.default_rng(seed))
            assert same_bits(labels, ref_labels)
            assert same_bits(centers, ref_centers)

    def test_one_dimensional_large_clusters(self):
        """d=1 means are pairwise sums; clusters past 8 and 128 points."""
        rng = np.random.default_rng(5)
        pts = np.concatenate([rng.normal(0, 1, 300), rng.normal(50, 1, 40),
                              rng.normal(-50, 1, 9)])[:, None]
        for seed in range(5):
            labels, centers = kmeans(pts, 3, np.random.default_rng(seed))
            ref = kmeans_reference(pts, 3, np.random.default_rng(seed))
            assert same_bits(labels, ref[0])
            assert same_bits(centers, ref[1])

    @pytest.mark.parametrize("seed", range(20))
    def test_no_empty_cluster_on_stacked_points(self, seed):
        """21 points at 3 positions, k=5: the re-seed once left a cluster
        empty (sizes [10 9 1 0 1]) by re-reading stale distances."""
        pts = np.array([[0.0, 0.0]] * 10 + [[1.0, 1.0]] * 10 + [[5.0, 5.0]])
        labels, _ = kmeans(pts, 5, np.random.default_rng(seed))
        assert np.bincount(labels, minlength=5).min() >= 1


class TestBoxGroupingIdentity:
    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_cluster_rects_to_mebs(self, d):
        rng = np.random.default_rng(200 + d)
        for rects, k in box_sets(d, rng):
            seed = int(rng.integers(1 << 30))
            mebs, labels = cluster_rects_to_mebs(rects, k,
                                                 np.random.default_rng(seed))
            ref_mebs, ref_labels = cluster_rects_to_mebs_reference(
                rects, k, np.random.default_rng(seed))
            assert same_bits(labels, ref_labels)
            assert same_bits(mebs.lo, ref_mebs.lo)
            assert same_bits(mebs.hi, ref_mebs.hi)

    @pytest.mark.parametrize("d", (1, 2, 3, 4))
    def test_alpha_meb_cover(self, d):
        rng = np.random.default_rng(300 + d)
        for rects, alpha in box_sets(d, rng, count=16):
            seed = int(rng.integers(1 << 30))
            cover = alpha_meb_cover(rects, alpha, np.random.default_rng(seed))
            ref = alpha_meb_cover_reference(rects, alpha,
                                            np.random.default_rng(seed))
            assert same_bits(cover.lo, ref.lo)
            assert same_bits(cover.hi, ref.hi)

    def test_alpha_meb_cover_with_emptied_groups(self):
        """A box enclosing three tight clusters: refinement moves boxes
        into its group at zero enlargement and empties other groups."""
        emptied = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spots = np.array([[20.0, 20.0], [50.0, 80.0], [80.0, 30.0]])
            lo = np.vstack([[0.0, 0.0]] + [spot + rng.normal(0, 3, (8, 2))
                                           for spot in spots])
            hi = lo + np.vstack([[100.0, 100.0], np.full((24, 2), 2.0)])
            rects = RectSet(lo, hi)
            cover = alpha_meb_cover(rects, 3, np.random.default_rng(seed))
            ref = alpha_meb_cover_reference(rects, 3,
                                            np.random.default_rng(seed))
            assert same_bits(cover.lo, ref.lo)
            assert same_bits(cover.hi, ref.hi)
            emptied += len(cover) < 3
        assert emptied > 0


class TestSlotCostsIdentity:
    @pytest.mark.parametrize("d", (1, 2, 3))
    def test_costs_match_masked_form(self, d):
        rng = np.random.default_rng(400 + d)
        num_targets, alpha = 6, 3
        state = _SlotState(num_targets, alpha, d)
        for step in range(120):
            lo = np.round(rng.uniform(0.0, 20.0, size=d), 1)
            width = rng.exponential(3.0, size=d)
            if step % 4 == 0:
                width[rng.random(d) < 0.5] = 0.0   # degenerate boxes
            hi = lo + width
            targets = rng.permutation(num_targets)[:int(rng.integers(1, 7))]
            got = state.costs(targets, lo, hi)
            expected = slot_costs_reference(
                state.lo, state.hi, state.count, state.volume, alpha,
                targets, lo, hi)
            assert same_bits(got, expected)
            # Fill targets unevenly: some stay empty, some fill up.
            pick = int(targets[0])
            if pick % 3:
                state.commit(pick, lo, hi)
        assert (state.count == alpha).any() and (state.count == 0).any()


class TestClusterMeansIdentity:
    @pytest.mark.parametrize("d", DIMS)
    def test_matches_per_cluster_mean(self, d):
        rng = np.random.default_rng(600 + d)
        for pts, k in point_sets(d, rng):
            k = min(k, len(pts))
            labels = np.concatenate([np.arange(k),
                                     rng.integers(0, k, len(pts) - k)])
            rng.shuffle(labels)
            sizes = np.bincount(labels, minlength=k)
            expected = np.array([pts[labels == c].mean(axis=0)
                                 for c in range(k)])
            assert same_bits(_cluster_means(pts, labels, sizes), expected)


class TestCovererListsIdentity:
    @pytest.mark.parametrize("density", (0.0, 0.05, 0.5, 1.0))
    def test_matches_per_column_flatnonzero(self, density):
        rng = np.random.default_rng(int(density * 100))
        for rows, cols in ((1, 1), (7, 300), (64, 40), (3, 0)):
            mask = rng.random((rows, cols)) < density
            got = _coverer_lists(mask)
            expected = [np.flatnonzero(mask[:, j]) for j in range(cols)]
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert same_bits(a, b)


class TestVerifierIdentity:
    @pytest.fixture
    def solutions(self, small_problem, small_multilevel_problem):
        gr = ALGORITHMS["Gr*"](small_problem)
        multi = ALGORITHMS["Gr*"](small_multilevel_problem)
        nested = corrupt_nesting(small_problem, gr)
        unfiltered = dict(nested.filters)
        leaf = int(np.bincount(
            gr.assignment, minlength=small_problem.tree.num_nodes).argmax())
        del unfiltered[leaf]                 # a leaf with members, no filter
        no_filter = type(gr)(problem=small_problem,
                             assignment=gr.assignment.copy(),
                             filters=unfiltered)
        return [gr, multi, nested, no_filter,
                corrupt_latency(small_problem, gr)]

    def test_nesting_and_latency_match_loops(self, solutions):
        saw_missing = saw_uncovered = False
        for solution in solutions:
            problem = solution.problem
            assignment = np.asarray(solution.assignment, dtype=int)
            valid = _check_assignment(problem, assignment, [])
            sane = np.where(valid, assignment, -1)
            got, expected = [], []
            _check_nesting(problem, solution, sane, valid, got)
            check_nesting_reference(problem, solution, sane, valid, expected)
            assert got == expected
            saw_missing |= any("no filter" in v.message for v in got)
            saw_uncovered |= any("not covered" in v.message for v in got)

            got, expected = [], []
            worst = _check_latency(problem, sane, valid, got)
            ref_worst = check_latency_reference(problem, sane, valid,
                                                expected)
            assert got == expected
            assert same_bits(np.float64(worst), np.float64(ref_worst))
        assert saw_missing and saw_uncovered
