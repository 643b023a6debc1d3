"""Invariant checking, differential oracles, and property strategies.

The correctness backstop of the library: :func:`verify_solution` checks
any :class:`~repro.core.problem.SASolution` against the paper's
guarantees with per-violation diagnostics, :mod:`repro.verify.oracles`
cross-checks redundant implementations (matchers, volume estimators,
the runtime engine vs the batch simulator), and
:mod:`repro.verify.strategies` generates seeded random problems for the
property suite.  ``python -m repro verify`` drives all of it from the
command line and exits nonzero on any violation.
"""

from .corruption import (
    corrupt_aggregation_drop,
    corrupt_aggregation_split,
    corrupt_latency,
    corrupt_nesting,
)
from .invariants import (
    ALL_CHECKS,
    CHECK_ASSIGNMENT,
    CHECK_COMPLEXITY,
    CHECK_LATENCY,
    CHECK_LOAD,
    CHECK_NESTING,
    VerificationReport,
    Violation,
    guaranteed_checks,
    verify_solution,
)
from .oracles import (
    OracleReport,
    epoch_runtime_oracle,
    matcher_oracle,
    runtime_oracle,
    simulator_batch_oracle,
    solution_oracles,
    volume_oracle,
)
from .strategies import (
    EVENT_DOMAIN,
    STRATEGY_NAMES,
    RandomInstance,
    problem_cases,
    random_problem,
)

__all__ = [
    "ALL_CHECKS",
    "CHECK_ASSIGNMENT",
    "CHECK_COMPLEXITY",
    "CHECK_LATENCY",
    "CHECK_LOAD",
    "CHECK_NESTING",
    "Violation",
    "VerificationReport",
    "verify_solution",
    "guaranteed_checks",
    "OracleReport",
    "matcher_oracle",
    "volume_oracle",
    "runtime_oracle",
    "simulator_batch_oracle",
    "epoch_runtime_oracle",
    "solution_oracles",
    "EVENT_DOMAIN",
    "STRATEGY_NAMES",
    "RandomInstance",
    "random_problem",
    "problem_cases",
    "corrupt_nesting",
    "corrupt_latency",
    "corrupt_aggregation_split",
    "corrupt_aggregation_drop",
]
