"""verify_solution: structured invariant checking of SA solutions."""

import numpy as np
import pytest

from repro import ALGORITHMS
from repro.pubsub.filters import Filter
from repro.geometry import RectSet
from repro.verify import (
    ALL_CHECKS,
    CHECK_ASSIGNMENT,
    CHECK_COMPLEXITY,
    CHECK_LATENCY,
    CHECK_LOAD,
    CHECK_NESTING,
    corrupt_latency,
    corrupt_nesting,
    guaranteed_checks,
    verify_solution,
)


@pytest.fixture
def gr_solution(small_problem):
    return ALGORITHMS["Gr*"](small_problem)


class TestCleanSolutions:
    def test_gr_star_passes_all_checks(self, small_problem, gr_solution):
        report = verify_solution(small_problem, gr_solution)
        assert report.ok, report.summary()
        assert report.violations == []
        assert report.lbf > 0
        assert report.num_subscribers == small_problem.num_subscribers

    def test_by_check_covers_requested_checks(self, small_problem,
                                              gr_solution):
        report = verify_solution(small_problem, gr_solution,
                                 {CHECK_NESTING, CHECK_LATENCY})
        assert set(report.by_check()) == {CHECK_NESTING, CHECK_LATENCY}

    def test_unknown_check_rejected(self, small_problem, gr_solution):
        with pytest.raises(ValueError, match="unknown checks"):
            verify_solution(small_problem, gr_solution, {"vibes"})

    def test_wrong_assignment_shape_rejected(self, small_problem,
                                             gr_solution):
        import dataclasses
        bad = dataclasses.replace(gr_solution, assignment=np.array([1, 2]))
        with pytest.raises(ValueError, match="one entry per subscriber"):
            verify_solution(small_problem, bad)


class TestViolationDetection:
    def test_unassigned_subscriber(self, small_problem, gr_solution):
        assignment = gr_solution.assignment.copy()
        assignment[3] = -1
        bad = type(gr_solution)(problem=small_problem,
                                assignment=assignment,
                                filters=gr_solution.filters)
        report = verify_solution(small_problem, bad)
        assert not report.ok
        assert report.count(CHECK_ASSIGNMENT) == 1
        assert "subscriber 3" in str(report.violations[0])

    def test_assignment_to_non_leaf(self, small_problem, gr_solution):
        assignment = gr_solution.assignment.copy()
        assignment[0] = 0  # the publisher is not a leaf broker
        bad = type(gr_solution)(problem=small_problem,
                                assignment=assignment,
                                filters=gr_solution.filters)
        report = verify_solution(small_problem, bad)
        assert report.count(CHECK_ASSIGNMENT) == 1
        assert "not a leaf" in report.violations[0].message

    def test_corrupted_targets_pinned(self, small_multilevel_problem):
        """Every kind of bad target, reported once each, in subscriber order."""
        problem = small_multilevel_problem
        solution = ALGORITHMS["Gr*"](problem)
        assignment = solution.assignment.copy()
        # -1 and -4: unassigned; 1: an interior broker; num_nodes and
        # 10**6: out of range; 0: the publisher.
        corrupt = {2: -1, 5: 1, 7: problem.tree.num_nodes, 11: 0, 13: -4,
                   17: 10**6}
        for j, node in corrupt.items():
            assignment[j] = node
        bad = type(solution)(problem=problem, assignment=assignment,
                             filters=solution.filters)
        report = verify_solution(problem, bad)
        unassigned = "not assigned to any leaf broker"

        def not_leaf(node):
            return f"assigned to node {node}, which is not a leaf broker"

        assert [(v.check, v.subject, v.message, v.measured, v.limit)
                for v in report.violations] == [
            (CHECK_ASSIGNMENT, f"subscriber {j}", message, None, None)
            for j, message in [(2, unassigned), (5, not_leaf(1)),
                               (7, not_leaf(problem.tree.num_nodes)),
                               (11, not_leaf(0)), (13, unassigned),
                               (17, not_leaf(10**6))]]
        assert report.lbf == 1.5333333333333334
        assert report.max_delay_seen == 0.17742981287115334

    def test_shrunk_filter_breaks_nesting(self, small_problem, gr_solution):
        bad = corrupt_nesting(small_problem, gr_solution)
        report = verify_solution(small_problem, bad)
        assert report.count(CHECK_NESTING) >= 1
        # Only the nesting invariant broke; the assignment is untouched.
        assert report.count(CHECK_ASSIGNMENT) == 0
        assert report.count(CHECK_LATENCY) == 0

    def test_reassignment_breaks_latency(self, small_problem, gr_solution):
        bad = corrupt_latency(small_problem, gr_solution)
        report = verify_solution(small_problem, bad)
        assert report.count(CHECK_LATENCY) == 1
        violation = next(v for v in report.violations
                         if v.check == CHECK_LATENCY)
        assert violation.measured > violation.limit

    def test_oversized_filter_breaks_complexity(self, small_problem,
                                                gr_solution):
        alpha = small_problem.params.alpha
        node = int(small_problem.tree.leaves[0])
        lo = np.tile(np.array([[0.0, 0.0]]), (alpha + 1, 1))
        hi = lo + np.linspace(1.0, 100.0, alpha + 1)[:, None]
        filters = dict(gr_solution.filters)
        filters[node] = Filter(RectSet(lo, hi))
        bad = type(gr_solution)(problem=small_problem,
                                assignment=gr_solution.assignment,
                                filters=filters)
        report = verify_solution(small_problem, bad,
                                 {CHECK_COMPLEXITY})
        assert report.count(CHECK_COMPLEXITY) == 1
        assert report.violations[0].measured == alpha + 1

    def test_pileup_breaks_load(self, small_problem, gr_solution):
        # Everyone on one broker: lbf = num_leaves >> beta_max.
        node = int(small_problem.tree.leaves[0])
        assignment = np.full(small_problem.num_subscribers, node)
        bad = type(gr_solution)(problem=small_problem,
                                assignment=assignment,
                                filters=gr_solution.filters)
        report = verify_solution(small_problem, bad, {CHECK_LOAD})
        assert report.count(CHECK_LOAD) == 1
        assert report.lbf == pytest.approx(small_problem.num_leaf_brokers)

    def test_summary_truncates(self, small_problem, gr_solution):
        assignment = np.full(small_problem.num_subscribers, -1)
        bad = type(gr_solution)(problem=small_problem,
                                assignment=assignment,
                                filters=gr_solution.filters)
        report = verify_solution(small_problem, bad, {CHECK_ASSIGNMENT})
        text = report.summary(max_lines=5)
        assert "FAILED" in text
        assert "more" in text
        assert len(text.splitlines()) == 7  # header + 5 + truncation line


class TestGuaranteedChecks:
    def test_base_checks_for_blind_variants(self):
        assert CHECK_LATENCY not in guaranteed_checks("Gr-no-latency")
        assert CHECK_LOAD not in guaranteed_checks("Closest-no-balance")

    def test_latency_guaranteed_for_core_algorithms(self):
        for name in ("Gr", "Gr*", "SLP1", "SLP", "Balance"):
            assert CHECK_LATENCY in guaranteed_checks(name)

    def test_load_conditional_on_greedy_fallback(self, small_problem):
        solution = ALGORITHMS["Gr*"](small_problem)
        checks = guaranteed_checks("Gr*", solution)
        if solution.info["load_cap_violations"] == 0:
            assert CHECK_LOAD in checks
        else:
            assert CHECK_LOAD not in checks

    def test_closest_load_depends_on_caps(self, small_problem):
        solution = ALGORITHMS["Closest"](small_problem)
        checks = guaranteed_checks("Closest", solution)
        caps = np.floor(small_problem.params.beta_max * small_problem.kappas
                        * small_problem.num_subscribers)
        assert (CHECK_LOAD in checks) == (
            caps.sum() >= small_problem.num_subscribers)

    def test_all_guarantees_subset_of_all_checks(self):
        for name in ALGORITHMS:
            assert guaranteed_checks(name) <= ALL_CHECKS
