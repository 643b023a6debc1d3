"""Three-way matcher differential suite: batch plane vs scalar oracle.

Every matcher must agree with :class:`BruteForceMatcher` cell-for-cell
in batch mode (``match_points``) and with its own scalar ``match_point``
column-for-column, including the awkward inputs: degenerate (zero-width)
subscription rectangles, events exactly on rectangle boundaries, the
empty tree, and the zero-event batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, RectSet
from repro.pubsub import (
    BruteForceMatcher,
    GridMatcher,
    Matcher,
    RTreeMatcher,
    best_matcher,
)
from repro.verify import matcher_oracle

DOMAIN = Rect([0, 0], [100, 100])


def random_subs(rng, n, degenerate_fraction=0.2):
    """Subscriptions inside DOMAIN; a fraction collapse to zero width."""
    lo = rng.uniform(0, 90, size=(n, 2))
    hi = lo + rng.uniform(0.5, 20, size=(n, 2))
    flat = rng.random(n) < degenerate_fraction
    hi[flat] = lo[flat]  # zero-area rect: contains only its own point
    return RectSet(lo, np.minimum(hi, 100.0))


def awkward_events(rng, subs, m):
    """Random events plus boundary-touching ones (corners of the subs)."""
    events = [rng.uniform(-5, 105, size=(m, 2))]
    if len(subs):
        take = rng.integers(0, len(subs), size=min(m, 16))
        events.append(subs.lo[take])          # exact lower corners
        events.append(subs.hi[take])          # exact upper corners
        events.append(np.column_stack([subs.lo[take, 0], subs.hi[take, 1]]))
    return np.concatenate(events, axis=0)


def crossover_blocks(grid, n):
    """Column indices cycling ``n`` events to one block on each side of
    the grid's scan/bucket crossover."""
    return [np.arange(size) % n
            for size in (max(grid.scan_below - 1, 1), max(grid.scan_below, n))]


def all_matchers(subs):
    return [
        ("brute", BruteForceMatcher(subs)),
        ("grid", GridMatcher(subs, DOMAIN, resolution=8)),
        ("rtree", RTreeMatcher(subs)),
    ]


class TestThreeWayDifferential:
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 80),
           m=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_batch_agreement_with_brute_force(self, seed, n, m):
        rng = np.random.default_rng(seed)
        subs = random_subs(rng, n)
        events = awkward_events(rng, subs, m)
        expected = BruteForceMatcher(subs).match_points(events)
        for name, matcher in all_matchers(subs):
            got = matcher.match_points(events)
            assert got.shape == (n, events.shape[0]), name
            assert np.array_equal(got, expected), name
        grid = GridMatcher(subs, DOMAIN, resolution=8)
        for cols in crossover_blocks(grid, events.shape[0]):
            assert np.array_equal(grid.match_points(events[cols]),
                                  expected[:, cols]), len(cols)

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 40),
           m=st.integers(1, 24))
    @settings(max_examples=30, deadline=None)
    def test_scalar_batch_self_consistency(self, seed, n, m):
        rng = np.random.default_rng(seed)
        subs = random_subs(rng, n)
        events = awkward_events(rng, subs, m)
        for name, matcher in all_matchers(subs):
            matrix = matcher.match_points(events)
            for j in range(events.shape[0]):
                ids = np.asarray(matcher.match_point(events[j]), dtype=int)
                assert np.array_equal(np.flatnonzero(matrix[:, j]), ids), \
                    f"{name} disagrees with its own scalar path at event {j}"

    def test_oracle_harness_agrees(self):
        rng = np.random.default_rng(11)
        subs = random_subs(rng, 60)
        report = matcher_oracle(subs, DOMAIN, awkward_events(rng, subs, 40))
        assert report.agree, report.detail


class TestRTreeEdgeCases:
    def test_empty_tree_batch(self):
        matcher = RTreeMatcher(RectSet.empty(2))
        out = matcher.match_points(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert out.shape == (0, 2)
        assert matcher.match_point(np.array([1.0, 2.0])).size == 0

    def test_zero_event_input(self):
        rng = np.random.default_rng(5)
        subs = random_subs(rng, 12)
        empty = np.empty((0, 2))
        for name, matcher in all_matchers(subs):
            out = matcher.match_points(empty)
            assert out.shape == (12, 0), name

    def test_boundary_points_match_exactly(self):
        subs = RectSet(np.array([[10.0, 10.0], [30.0, 30.0]]),
                       np.array([[20.0, 20.0], [30.0, 30.0]]))
        # Corners, edges, and the degenerate rect's single point all
        # count as inside — closed boxes on every side.
        events = np.array([[10.0, 10.0], [20.0, 20.0], [10.0, 20.0],
                           [30.0, 30.0], [20.0 + 1e-12, 20.0]])
        expected = BruteForceMatcher(subs).match_points(events)
        assert expected[:, :4].any(axis=0).all()  # each touches some box
        for name, matcher in all_matchers(subs):
            assert np.array_equal(matcher.match_points(events), expected), name

    def test_single_subscription_tree(self):
        subs = RectSet(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        out = RTreeMatcher(subs).match_points(
            np.array([[0.5, 0.5], [2.0, 2.0]]))
        assert out.tolist() == [[True, False]]


class TestBestMatcher:
    def test_small_population_uses_brute_force(self):
        rng = np.random.default_rng(0)
        subs = random_subs(rng, 30)
        assert isinstance(best_matcher(subs, DOMAIN), BruteForceMatcher)

    def test_compact_population_uses_grid(self):
        # Small boxes spread over the domain: each spans ~one grid cell
        # and no bucket dominates, the grid's sweet spot.
        rng = np.random.default_rng(1)
        lo = rng.uniform(0, 95, size=(200, 2))
        subs = RectSet(lo, lo + rng.uniform(0.5, 4.0, size=(200, 2)))
        assert isinstance(best_matcher(subs, DOMAIN), GridMatcher)

    def test_degenerate_domain_falls_back_to_rtree(self):
        rng = np.random.default_rng(2)
        subs = random_subs(rng, 200)
        flat = Rect([0, 0], [100, 0])  # zero height: grid cannot index it
        assert isinstance(best_matcher(subs, flat), RTreeMatcher)

    def test_degenerate_meb_without_domain_falls_back_to_rtree(self):
        point = np.tile([[5.0, 5.0]], (100, 1))
        subs = RectSet(point, point)  # MEB is a single point
        assert isinstance(best_matcher(subs), RTreeMatcher)

    def test_broad_subscriptions_use_rtree(self):
        # Every subscription spans nearly the whole domain: a grid bucket
        # would hold everyone, so the heuristic must reject it.
        rng = np.random.default_rng(3)
        lo = rng.uniform(0, 2, size=(100, 2))
        hi = rng.uniform(98, 100, size=(100, 2))
        subs = RectSet(lo, hi)
        assert isinstance(best_matcher(subs, DOMAIN), RTreeMatcher)

    def test_skewed_population_uses_rtree(self):
        # Tiny boxes piled into one corner cell: per-sub cell cost is
        # fine but one bucket holds everyone, so grid probes degrade.
        rng = np.random.default_rng(4)
        lo = rng.uniform(0, 1, size=(100, 2))
        subs = RectSet(lo, lo + 0.5)
        assert isinstance(best_matcher(subs, DOMAIN), RTreeMatcher)

    def test_selected_matchers_satisfy_protocol_and_agree(self):
        rng = np.random.default_rng(6)
        for n in (10, 120):
            subs = random_subs(rng, n)
            matcher = best_matcher(subs, DOMAIN)
            assert isinstance(matcher, Matcher)
            events = awkward_events(rng, subs, 20)
            assert np.array_equal(
                matcher.match_points(events),
                BruteForceMatcher(subs).match_points(events))


class TestGridCrossover:
    """The grid scans small blocks and probes its buckets for large ones."""

    @pytest.fixture(scope="class")
    def fig7(self):
        from repro import GoogleGroupsConfig, generate_google_groups
        workload = generate_google_groups(7, GoogleGroupsConfig(
            num_subscribers=1500, num_brokers=16, interest_skew="H",
            broad_interests="L"))
        return workload.subscriptions, workload.event_domain

    def test_fig7_block_sides(self, fig7):
        subs, domain = fig7
        grid = best_matcher(subs, domain)
        assert isinstance(grid, GridMatcher)
        # Single serve publishes and 512-event runtime epochs scan;
        # 2,048-event simulator chunks probe the buckets.
        assert 1 < 512 < grid.scan_below <= 2048
        events = np.random.default_rng(0).uniform(
            domain.lo, domain.hi, size=(2048, 2))
        brute = BruteForceMatcher(subs)
        for n in (1, 512, 2048):
            assert np.array_equal(grid.match_points(events[:n]),
                                  brute.match_points(events[:n])), n

    def test_rule_follows_population_and_cells(self):
        rng = np.random.default_rng(8)
        small = GridMatcher(random_subs(rng, 100), DOMAIN, resolution=4)
        large = GridMatcher(random_subs(rng, 400), DOMAIN, resolution=4)
        finer = GridMatcher(random_subs(rng, 400), DOMAIN, resolution=8)
        assert small.scan_below == 4 * large.scan_below
        assert finer.scan_below == 4 * large.scan_below
        assert GridMatcher(RectSet.empty(2), DOMAIN).scan_below == 0
        lo = rng.uniform(0, 99, size=(5000, 2))
        huge = GridMatcher(RectSet(lo, lo + 1), DOMAIN)
        assert huge.scan_below == 0   # buckets beat a scan at every size
