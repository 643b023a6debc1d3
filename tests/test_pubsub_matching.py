"""Grid matcher vs brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, RectSet
from repro.pubsub import BruteForceMatcher, GridMatcher

DOMAIN = Rect([0, 0], [100, 100])


def random_subs(rng, n):
    lo = rng.uniform(0, 90, size=(n, 2))
    hi = lo + rng.uniform(0.5, 20, size=(n, 2))
    return RectSet(lo, hi)


def bucket_block(grid, points):
    """``points`` cycled to a block large enough for the grid's buckets."""
    return points[np.arange(max(grid.scan_below, len(points)))
                  % len(points)]


class TestBruteForce:
    def test_match_point(self):
        subs = RectSet(np.array([[0.0, 0.0], [5.0, 5.0]]),
                       np.array([[2.0, 2.0], [9.0, 9.0]]))
        matcher = BruteForceMatcher(subs)
        assert matcher.match_point(np.array([1.0, 1.0])).tolist() == [0]
        assert matcher.match_point(np.array([6.0, 6.0])).tolist() == [1]
        assert matcher.match_point(np.array([50.0, 50.0])).tolist() == []

    def test_match_points_matrix(self):
        subs = RectSet(np.array([[0.0, 0.0]]), np.array([[2.0, 2.0]]))
        matrix = BruteForceMatcher(subs).match_points(
            np.array([[1.0, 1.0], [3.0, 3.0]]))
        assert matrix.tolist() == [[True, False]]


class TestGridMatcher:
    def test_agrees_with_brute_force_fixed(self):
        rng = np.random.default_rng(0)
        subs = random_subs(rng, 50)
        grid = GridMatcher(subs, DOMAIN, resolution=8)
        brute = BruteForceMatcher(subs)
        points = rng.uniform(0, 100, size=(200, 2))
        assert len(points) < grid.scan_below   # answered by the scan
        assert np.array_equal(grid.match_points(points),
                              brute.match_points(points))

    def test_agrees_with_brute_force_on_bucket_block(self):
        rng = np.random.default_rng(0)
        subs = random_subs(rng, 50)
        grid = GridMatcher(subs, DOMAIN, resolution=8)
        points = bucket_block(grid, rng.uniform(0, 100, size=(200, 2)))
        assert len(points) >= grid.scan_below
        assert np.array_equal(grid.match_points(points),
                              BruteForceMatcher(subs).match_points(points))

    def test_point_outside_domain_clamped(self):
        subs = RectSet(np.array([[95.0, 95.0]]), np.array([[100.0, 100.0]]))
        grid = GridMatcher(subs, DOMAIN, resolution=4)
        # A point just outside still lands in the border cell and misses
        # correctly (containment is exact).
        assert grid.match_point(np.array([101.0, 101.0])).tolist() == []
        assert grid.match_point(np.array([99.0, 99.0])).tolist() == [0]

    def test_resolution_one_degenerates_to_brute_force(self):
        rng = np.random.default_rng(1)
        subs = random_subs(rng, 20)
        grid = GridMatcher(subs, DOMAIN, resolution=1)
        brute = BruteForceMatcher(subs)
        points = bucket_block(grid, rng.uniform(0, 100, size=(50, 2)))
        assert np.array_equal(grid.match_points(points),
                              brute.match_points(points))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_buckets_match_per_subscription_loop(self, dim):
        # Reference: walk every cell of each subscription's clamped cell
        # range, subscription by subscription.
        rng = np.random.default_rng(dim)
        lo = rng.uniform(-10, 95, size=(80, dim))
        subs = RectSet(lo, lo + rng.uniform(0, 30, size=(80, dim)))
        grid = GridMatcher(subs, Rect([0] * dim, [100] * dim), resolution=6)
        lo_cells = grid._cell_coords(subs.lo)
        hi_cells = grid._cell_coords(subs.hi)
        expected: dict[int, list[int]] = {}
        for j in range(len(subs)):
            for cell in np.ndindex(*(hi_cells[j] - lo_cells[j] + 1)):
                flat = grid._flatten(tuple(lo_cells[j] + np.array(cell)))
                expected.setdefault(flat, []).append(j)
        assert {k: v.tolist() for k, v in grid._buckets.items()} == expected

    def test_invalid_resolution(self):
        subs = RectSet(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            GridMatcher(subs, DOMAIN, resolution=0)

    def test_degenerate_domain_rejected(self):
        subs = RectSet(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            GridMatcher(subs, Rect([0, 0], [0, 10]))

    @given(st.integers(0, 10_000), st.integers(1, 40),
           st.sampled_from([2, 5, 16]))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, seed, n, resolution):
        rng = np.random.default_rng(seed)
        subs = random_subs(rng, n)
        grid = GridMatcher(subs, DOMAIN, resolution=resolution)
        brute = BruteForceMatcher(subs)
        points = rng.uniform(-5, 105, size=(30, 2))
        for p in points:
            assert sorted(grid.match_point(p).tolist()) \
                == sorted(brute.match_point(p).tolist())


class TestGridMatcherVectorizedEdges:
    """Edge cases of the batched (cell-grouped) match_points path."""

    def test_empty_event_batch(self):
        rng = np.random.default_rng(2)
        subs = random_subs(rng, 10)
        grid = GridMatcher(subs, DOMAIN, resolution=8)
        matrix = grid.match_points(np.empty((0, 2)))
        assert matrix.shape == (10, 0)

    def test_empty_subscription_set(self):
        grid = GridMatcher(RectSet.empty(2), DOMAIN, resolution=8)
        matrix = grid.match_points(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert matrix.shape == (0, 2)

    def test_all_events_in_one_cell(self):
        rng = np.random.default_rng(3)
        subs = random_subs(rng, 30)
        grid = GridMatcher(subs, DOMAIN, resolution=4)
        brute = BruteForceMatcher(subs)
        # Every event lands in the same grid cell: a single bucket batch.
        points = bucket_block(grid, rng.uniform(1.0, 20.0, size=(40, 2)))
        assert np.array_equal(grid.match_points(points),
                              brute.match_points(points))

    def test_unsorted_events_keep_column_order(self):
        rng = np.random.default_rng(4)
        subs = random_subs(rng, 25)
        grid = GridMatcher(subs, DOMAIN, resolution=8)
        points = bucket_block(grid, rng.uniform(0, 100, size=(60, 2)))
        shuffled = points[::-1]
        assert np.array_equal(grid.match_points(shuffled),
                              grid.match_points(points)[:, ::-1])
