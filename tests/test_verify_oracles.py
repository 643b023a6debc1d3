"""Differential oracles: matchers, volume estimators, runtime vs batch."""

import numpy as np
import pytest

from repro import ALGORITHMS, UniformEvents
from repro.geometry import Rect, RectSet
from repro.verify import (
    EVENT_DOMAIN,
    matcher_oracle,
    random_problem,
    runtime_oracle,
    solution_oracles,
    volume_oracle,
)
from repro.verify import oracles as oracles_module


def boxes(rng, n, max_width=15.0):
    lo = rng.uniform(0.0, 85.0, size=(n, 2))
    hi = np.minimum(lo + rng.uniform(0.1, max_width, size=(n, 2)), 100.0)
    return RectSet(lo, hi)


class TestMatcherOracle:
    def test_agrees_on_random_sets(self, rng):
        subs = boxes(rng, 120)
        events = rng.uniform(-5.0, 105.0, size=(300, 2))
        report = matcher_oracle(subs, EVENT_DOMAIN, events)
        assert report.agree, report.detail
        assert "exactly" in report.detail

    def test_agrees_on_degenerate_boxes(self, rng):
        lo = rng.uniform(0.0, 100.0, size=(40, 2))
        subs = RectSet(lo, lo)  # pure points
        events = np.vstack([lo[:10], rng.uniform(0, 100, size=(50, 2))])
        report = matcher_oracle(subs, EVENT_DOMAIN, events)
        assert report.agree, report.detail

    def test_detects_a_broken_index(self, rng, monkeypatch):
        subs = boxes(rng, 60)
        events = rng.uniform(0.0, 100.0, size=(100, 2))
        monkeypatch.setattr(
            oracles_module.GridMatcher, "match_points",
            lambda self, pts: np.zeros((60, 100), dtype=bool))
        report = matcher_oracle(subs, EVENT_DOMAIN, events)
        assert not report.agree
        assert "grid" in report.detail


class TestVolumeOracle:
    def test_exact_vs_monte_carlo_within_tolerance(self, rng):
        report = volume_oracle(boxes(rng, 25), rng, samples=150_000)
        assert report.agree, report.detail
        assert report.max_error <= report.tolerance

    def test_empty_set(self, rng):
        report = volume_oracle(RectSet.empty(2), rng)
        assert report.agree
        assert report.max_error == 0.0

    def test_degenerate_set(self, rng):
        # Identical points: the MEB itself has zero volume, so both
        # estimators must return exactly zero.
        lo = np.tile(np.array([[10.0, 10.0]]), (3, 1))
        report = volume_oracle(RectSet(lo, lo), rng)
        assert report.agree
        assert "degenerate" in report.detail

    def test_zero_volume_union_in_positive_meb(self, rng):
        # Distinct points: the MEB has positive volume but the union
        # measure is still zero; the oracle must agree at zero error.
        lo = np.array([[10.0, 10.0], [20.0, 30.0]])
        report = volume_oracle(RectSet(lo, lo), rng)
        assert report.agree
        assert report.max_error == 0.0

    def test_detects_a_broken_estimator(self, rng, monkeypatch):
        rects = boxes(rng, 20)
        monkeypatch.setattr(oracles_module, "union_volume_monte_carlo",
                            lambda rects, rng, samples: 0.0)
        report = volume_oracle(rects, rng)
        assert not report.agree


class TestRuntimeOracle:
    def test_engine_matches_batch_simulator(self, small_problem):
        solution = ALGORITHMS["Gr*"](small_problem)
        distribution = UniformEvents(EVENT_DOMAIN)
        report = runtime_oracle(small_problem, solution, distribution,
                                seed=11, num_events=300)
        assert report.agree, report.detail
        assert "identical" in report.detail

    def test_detects_diverging_engine(self, small_problem, monkeypatch):
        solution = ALGORITHMS["Gr*"](small_problem)
        distribution = UniformEvents(EVENT_DOMAIN)
        original = oracles_module.simulate_dissemination

        def skewed(*args, **kwargs):
            result = original(*args, **kwargs)
            entries = result.node_entries.copy()
            entries[1] += 1
            import dataclasses
            return dataclasses.replace(result, node_entries=entries)

        monkeypatch.setattr(oracles_module, "simulate_dissemination", skewed)
        report = runtime_oracle(small_problem, solution, distribution,
                                seed=11, num_events=100)
        assert not report.agree
        assert "node entries" in report.detail


class TestSolutionOracles:
    def test_all_oracles_agree_on_workload_instance(self, small_workload,
                                                    small_problem):
        solution = ALGORITHMS["Gr*"](small_problem)
        reports = solution_oracles(small_problem, solution,
                                   small_workload.event_domain,
                                   seed=3, num_events=200,
                                   mc_samples=60_000)
        names = [r.name for r in reports]
        assert names == ["matcher", "volume", "runtime",
                         "simulator-batch", "runtime-epoch"]
        for report in reports:
            assert report.agree, str(report)

    def test_random_instances_all_oracles(self):
        # Strategy-generated problems exercise degenerate and adversarial
        # geometry through the full oracle stack.
        for kind, seed in (("degenerate", 2), ("adversarial", 7)):
            instance = random_problem(seed, kind)
            problem = instance.problem
            solution = ALGORITHMS["Gr"](problem)
            for report in solution_oracles(problem, solution, EVENT_DOMAIN,
                                           seed=seed, num_events=150,
                                           mc_samples=40_000):
                assert report.agree, f"{instance.case_id}: {report}"
