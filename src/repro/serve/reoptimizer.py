"""Background re-optimization loop for the live service.

Watches churn (subscribe/unsubscribe counts since the last successful
re-optimization) and, past a threshold, re-runs a full assignment
algorithm over the live subscription set.  The heavy solve is offloaded
to a worker thread; the gateway's churn lock is held for the duration so
the active set the solver sees is the active set that gets committed.

Every candidate solution passes through :func:`repro.verify.verify_solution`
*before* it is swapped in (the ``precommit`` hook of
:meth:`~repro.dynamic.manager.DynamicPubSub.reoptimize`): a violation is
logged, counted, and the old routing table is kept — the service never
routes through an assignment that breaks the paper's invariants.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from typing import Any

from ..verify import guaranteed_checks, verify_solution
from .broker import LiveBroker

__all__ = ["LP_ALGORITHMS", "ReoptimizerConfig", "Reoptimizer"]

logger = logging.getLogger(__name__)

#: Algorithms that solve LPs (and take a rounding ``seed``).
LP_ALGORITHMS = frozenset({"SLP1", "SLP"})


@dataclass(frozen=True)
class ReoptimizerConfig:
    """When and how the background loop re-optimizes."""

    churn_threshold: int = 64     #: churn events before a re-optimization
    poll_interval: float = 0.25   #: seconds between churn checks
    algorithm: str = "SLP1"       #: registered algorithm to re-run
    seed: int = 0                 #: seed for seeded algorithms
    min_active: int = 2           #: skip when fewer subscribers are active

    def __post_init__(self) -> None:
        if self.churn_threshold < 1:
            raise ValueError("churn_threshold must be at least 1")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.min_active < 1:
            raise ValueError("min_active must be at least 1")


class Reoptimizer:
    """The background task driving churn-triggered re-assignment."""

    def __init__(self, broker: LiveBroker, config: ReoptimizerConfig, *,
                 churn_lock: asyncio.Lock, validator: Any = None):
        self._broker = broker
        self._config = config
        self._lock = churn_lock
        self._validator = (validator if validator is not None
                           else self._invariant_validator)
        self._task: asyncio.Task | None = None
        self.runs = 0             #: committed re-optimizations
        self.rejected = 0         #: solutions vetoed by the validator
        self.migrations = 0       #: total subscribers moved by commits
        self.last_report: str | None = None  #: last violation summary

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Cancel the poll loop; a solve in flight finishes first."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self._config.poll_interval)
            if self.due():
                await self.reoptimize_now()

    def due(self) -> bool:
        return (self._broker.churn_since_reopt
                >= self._config.churn_threshold
                and self._broker.active_count >= self._config.min_active)

    # -- one re-optimization -------------------------------------------------

    def _invariant_validator(self, sub_problem, solution) -> bool:
        """Default gate: hold the solution to its algorithm's contract."""
        checks = guaranteed_checks(self._config.algorithm, solution)
        report = verify_solution(sub_problem, solution, checks)
        if not report.ok:
            self.last_report = report.summary()
        return report.ok

    async def reoptimize_now(self) -> dict[str, Any]:
        """Run one verified re-optimization under the churn lock."""
        config = self._config
        kwargs = ({"seed": config.seed}
                  if config.algorithm in LP_ALGORITHMS else {})
        async with self._lock:
            solve = asyncio.ensure_future(asyncio.to_thread(
                self._broker.reoptimize, config.algorithm,
                precommit=self._validator, **kwargs))
            try:
                info = await asyncio.shield(solve)
            except asyncio.CancelledError:
                # A thread cannot be interrupted: keep the lock until the
                # solve has finished with the broker.
                await asyncio.wait({solve})
                if not solve.cancelled() and solve.exception() is not None:
                    logger.error("re-optimization failed while stopping",
                                 exc_info=solve.exception())
                raise
        if info.get("committed"):
            self.runs += 1
            self.migrations += int(info.get("migrations", 0))
            logger.info("re-optimization #%d: %d active, %d migrations",
                        self.runs, info.get("active", 0),
                        info.get("migrations", 0))
        elif info.get("active"):
            self.rejected += 1
            # Wait for fresh churn before retrying rather than re-solving
            # (and re-rejecting) the same instance every poll tick.
            self._broker.churn_since_reopt = 0
            logger.warning(
                "re-optimization rejected by invariant verification "
                "(keeping routing table v%d): %s",
                self._broker.routing.version, self.last_report or "vetoed")
        return info

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "reoptimizations": self.runs,
            "reopt_rejected": self.rejected,
            "reopt_migrations": self.migrations,
            "churn_threshold": self._config.churn_threshold,
            "algorithm": self._config.algorithm,
        }
