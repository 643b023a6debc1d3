"""End-to-end invariant checking for arbitrary SA solutions.

This is the library's one constraint checker: ``repro verify``,
:func:`~repro.metrics.report.evaluate_solution`'s feasibility columns,
the topology search's penalty and the serve re-optimizer's commit gate
all read it.  :func:`verify_solution` re-derives every paper
guarantee from scratch — assignment completeness, each subscriber's
latency budget ``SAProblem.latency_budgets`` (by default
``delta_j <= (1 + D) * Delta_j``), the nesting condition (leaf
filters cover their assigned subscriptions, child filters nest inside
their parents as point sets), the ``alpha`` filter-complexity cap, and
the load-balance factor against ``beta_max`` — and returns a structured
:class:`VerificationReport` whose :class:`Violation` records name the
offending subscriber or broker, the measured quantity, and the limit it
broke.

Not every registered algorithm promises every invariant (Gr¬l is
latency-blind by design, Closest¬b ignores load); the
:func:`guaranteed_checks` map states what each algorithm *does*
guarantee, so the property suite and the ``repro verify`` CLI hold each
algorithm to exactly its own contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.problem import SAProblem, SASolution
from ..network.tree import PUBLISHER

__all__ = [
    "CHECK_ASSIGNMENT",
    "CHECK_LATENCY",
    "CHECK_NESTING",
    "CHECK_COMPLEXITY",
    "CHECK_LOAD",
    "ALL_CHECKS",
    "Violation",
    "VerificationReport",
    "verify_solution",
    "guaranteed_checks",
]

CHECK_ASSIGNMENT = "assignment"   #: every subscriber mapped to a real leaf
CHECK_LATENCY = "latency"         #: delta_j <= the subscriber's latency budget
CHECK_NESTING = "nesting"         #: subscriptions covered; child in parent
CHECK_COMPLEXITY = "complexity"   #: at most alpha rectangles per filter
CHECK_LOAD = "load"               #: lbf <= beta_max

ALL_CHECKS = frozenset({CHECK_ASSIGNMENT, CHECK_LATENCY, CHECK_NESTING,
                        CHECK_COMPLEXITY, CHECK_LOAD})

#: Relative latency slack.  The algorithms admit a leaf whose path latency
#: is within ``problem.LATENCY_RTOL`` (1e-9) of the budget, and multilevel
#: SLP routes on latencies summed in another order; a thousandfold wider
#: margin passes every such admission, while a real violation (which
#: :func:`~repro.verify.corruption.corrupt_latency` never plants under 1e-6
#: of the budget) still fails.
_LATENCY_RTOL = 1e-6
#: Absolute slack on the load-balance factor comparison.
_LBF_ATOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant, pinned to the entity that broke it."""

    check: str             #: which invariant (one of the CHECK_* names)
    subject: str           #: e.g. "subscriber 12", "broker 3"
    message: str           #: human-readable description
    measured: float | None = None  #: observed quantity, when numeric
    limit: float | None = None     #: bound it violated, when numeric

    def __str__(self) -> str:
        text = f"[{self.check}] {self.subject}: {self.message}"
        if self.measured is not None and self.limit is not None:
            text += f" ({self.measured:.6g} > {self.limit:.6g})"
        return text


@dataclass
class VerificationReport:
    """Structured outcome of :func:`verify_solution`."""

    checks: frozenset[str]            #: invariants that were evaluated
    violations: list[Violation] = field(default_factory=list)
    lbf: float = 0.0                  #: measured load-balance factor
    max_delay_seen: float = 0.0       #: worst per-subscriber delay observed
    num_subscribers: int = 0
    num_brokers: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, check: str) -> int:
        """Number of violations of one invariant."""
        return sum(1 for v in self.violations if v.check == check)

    def by_check(self) -> dict[str, int]:
        """Violation counts keyed by invariant, for every check run."""
        return {check: self.count(check) for check in sorted(self.checks)}

    def summary(self, max_lines: int = 10) -> str:
        """A short multi-line report: verdict, counts, first violations."""
        lines = [
            ("OK" if self.ok else f"FAILED ({len(self.violations)} violations)")
            + f" — checks: {', '.join(sorted(self.checks))}; "
            f"lbf={self.lbf:.3f}, worst delay={self.max_delay_seen:.3f}"
        ]
        for violation in self.violations[:max_lines]:
            lines.append("  " + str(violation))
        if len(self.violations) > max_lines:
            lines.append(f"  ... and {len(self.violations) - max_lines} more")
        return "\n".join(lines)


def _check_assignment(problem: SAProblem, assignment: np.ndarray,
                      out: list[Violation]) -> np.ndarray:
    """Validate targets; returns the mask of validly assigned subscribers."""
    valid = problem.tree.leaf_mask(assignment)
    bad = np.flatnonzero(~valid)
    for j, node in zip(bad.tolist(), assignment[bad].tolist()):
        if node < 0:
            out.append(Violation(CHECK_ASSIGNMENT, f"subscriber {j}",
                                 "not assigned to any leaf broker"))
        else:
            out.append(Violation(CHECK_ASSIGNMENT, f"subscriber {j}",
                                 f"assigned to node {node}, which is not a "
                                 "leaf broker"))
    return valid


def _check_latency(problem: SAProblem, assignment: np.ndarray,
                   valid: np.ndarray, out: list[Violation]) -> float:
    subscribers = np.flatnonzero(valid)
    leaves = assignment[subscribers]
    used = problem.leaf_latency[problem.tree.leaf_rows(leaves), subscribers]
    budget = problem.latency_budgets[subscribers]
    base = problem.shortest_latency[subscribers]
    with np.errstate(divide="ignore", invalid="ignore"):
        delay = np.where(base > 0, used / base - 1.0, 0.0)
    late = used > budget * (1.0 + _LATENCY_RTOL)
    for j, leaf, measured, limit, late_by in zip(
            subscribers[late].tolist(), leaves[late].tolist(),
            used[late].tolist(), budget[late].tolist(),
            delay[late].tolist()):
        out.append(Violation(
            CHECK_LATENCY, f"subscriber {j}",
            f"path latency via leaf {leaf} exceeds the "
            f"budget (delay {late_by:.4f} vs D={problem.params.max_delay})",
            measured=measured, limit=limit))
    # The worst delay is the largest positive one (NaN never counts).
    above = delay[delay > 0.0]
    return float(above.max()) if len(above) else 0.0


def _check_nesting(problem: SAProblem, solution: SASolution,
                   assignment: np.ndarray, valid: np.ndarray,
                   out: list[Violation]) -> None:
    # Leaf level: every assigned subscription must be covered by its
    # leaf's filter (single-rectangle containment — the paper's "cover"),
    # checked with one covering mask per leaf and reported in subscriber
    # order.
    subscribers = np.flatnonzero(valid)
    leaves = assignment[subscribers]
    covered = np.ones(len(subscribers), dtype=bool)
    unfiltered = np.zeros(len(subscribers), dtype=bool)
    for leaf in np.unique(leaves).tolist():
        at_leaf = np.flatnonzero(leaves == leaf)
        leaf_filter = solution.filters.get(leaf)
        if leaf_filter is None:
            unfiltered[at_leaf] = True
        else:
            covered[at_leaf] = leaf_filter.covering_mask(
                problem.subscriptions.take(subscribers[at_leaf]))
    flagged = ~covered | unfiltered
    for j, leaf, no_filter in zip(subscribers[flagged].tolist(),
                                  leaves[flagged].tolist(),
                                  unfiltered[flagged].tolist()):
        if no_filter:
            out.append(Violation(CHECK_NESTING, f"broker {leaf}",
                                 "has assigned subscribers but no filter"))
        else:
            out.append(Violation(
                CHECK_NESTING, f"subscriber {j}",
                f"subscription not covered by the filter of leaf {leaf}"))

    # Interior: each child filter must nest inside its parent's filter as
    # a point set (the publisher forwards everything, so depth-1 nodes
    # are exempt).
    tree = problem.tree
    for node in range(1, tree.num_nodes):
        parent = int(tree.parents[node])
        if parent == PUBLISHER:
            continue
        child_filter = solution.filters.get(node)
        if child_filter is None or child_filter.is_empty():
            continue
        parent_filter = solution.filters.get(parent)
        if parent_filter is None or not parent_filter.covers_filter(child_filter):
            out.append(Violation(
                CHECK_NESTING, f"broker {node}",
                f"filter not nested inside the filter of parent {parent}"))


def _check_complexity(problem: SAProblem, solution: SASolution,
                      out: list[Violation]) -> None:
    alpha = problem.params.alpha
    for node, filt in sorted(solution.filters.items()):
        if filt.complexity > alpha:
            out.append(Violation(
                CHECK_COMPLEXITY, f"broker {node}",
                "filter exceeds the alpha slot cap",
                measured=float(filt.complexity), limit=float(alpha)))


def _check_load(problem: SAProblem, assignment: np.ndarray,
                out: list[Violation]) -> float:
    loads = problem.loads(assignment)
    shares = loads / (problem.kappas * problem.num_subscribers)
    limit = problem.params.beta_max
    for row in np.flatnonzero(shares > limit + _LBF_ATOL):
        out.append(Violation(
            CHECK_LOAD, f"broker {int(problem.tree.leaves[row])}",
            f"load {int(loads[row])} exceeds its beta_max share",
            measured=float(shares[row]), limit=limit))
    return float(shares.max()) if len(shares) else 0.0


def verify_solution(problem: SAProblem, solution: SASolution,
                    checks: frozenset[str] | set[str] = ALL_CHECKS) -> VerificationReport:
    """Check an arbitrary solution against the requested invariants.

    The result carries one :class:`Violation` per broken constraint
    instance, so a failure says *which* subscriber's budget or *which*
    broker's filter is wrong; :attr:`VerificationReport.ok` is the
    overall verdict.
    """
    unknown = set(checks) - ALL_CHECKS
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")

    assignment = np.asarray(solution.assignment, dtype=int)
    if assignment.shape != (problem.num_subscribers,):
        raise ValueError("assignment must have one entry per subscriber")

    violations: list[Violation] = []
    report = VerificationReport(checks=frozenset(checks),
                                num_subscribers=problem.num_subscribers,
                                num_brokers=problem.tree.num_brokers)

    assignment_noise: list[Violation] = []
    valid = _check_assignment(problem, assignment, assignment_noise)
    if CHECK_ASSIGNMENT in checks:
        violations.extend(assignment_noise)
    # Downstream checks must survive malformed assignments (that is the
    # point of a verifier): invalid targets are masked out first.
    sane = np.where(valid, assignment, -1)

    if CHECK_LATENCY in checks:
        report.max_delay_seen = _check_latency(problem, sane, valid,
                                               violations)
    if CHECK_NESTING in checks:
        _check_nesting(problem, solution, sane, valid, violations)
    if CHECK_COMPLEXITY in checks:
        _check_complexity(problem, solution, violations)
    if CHECK_LOAD in checks:
        report.lbf = _check_load(problem, sane, violations)
    else:
        report.lbf = problem.load_balance_factor(sane)

    report.violations = violations
    return report


#: Invariants every algorithm in the registry promises unconditionally.
_BASE_GUARANTEES = frozenset({CHECK_ASSIGNMENT, CHECK_NESTING,
                              CHECK_COMPLEXITY})

#: Which algorithms additionally promise the latency budget.  (Gr¬l is
#: latency-blind; Closest minimizes the last hop only, which does not
#: bound the full publisher->leaf->subscriber path.)
_LATENCY_GUARANTEED = frozenset({"Gr", "Gr*", "Balance", "SLP1", "SLP"})


def guaranteed_checks(algorithm: str,
                      solution: SASolution | None = None) -> frozenset[str]:
    """The invariant set an algorithm actually promises.

    The load cap is conditional: Gr/Gr* fall back to best effort when an
    instance is load-infeasible (reported via ``info["load_cap_violations"]``),
    and Closest only respects its per-broker caps while capacity remains.
    Passing the produced ``solution`` resolves those conditions; without
    it, the unconditional set is returned.
    """
    checks = set(_BASE_GUARANTEES)
    if algorithm in _LATENCY_GUARANTEED:
        checks.add(CHECK_LATENCY)
    if solution is not None:
        if (algorithm in ("Gr", "Gr*")
                and solution.info.get("load_cap_violations", 1) == 0):
            checks.add(CHECK_LOAD)
        if algorithm == "Closest":
            # Caps are floor(beta_max * kappa_i * m); when they sum to at
            # least m the fallback branch never triggers.
            problem = solution.problem
            caps = np.floor(problem.params.beta_max * problem.kappas
                            * problem.num_subscribers)
            if caps.sum() >= problem.num_subscribers:
                checks.add(CHECK_LOAD)
    return frozenset(checks)
