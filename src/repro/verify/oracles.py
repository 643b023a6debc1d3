"""Differential oracles: cross-check independent implementations.

Four families of redundancy exist in the library, and each pair must
agree for the fast path to be trustworthy:

* **Matching** — :class:`BruteForceMatcher` is the exact oracle;
  :class:`GridMatcher` and :class:`RTreeMatcher` must reproduce its
  match matrix bit-for-bit on any shared event stream, and each
  matcher's batched ``match_points`` must agree column-for-column with
  its own scalar ``match_point``.
* **Measure** — :func:`union_volume` (exact coordinate compression) and
  :func:`union_volume_monte_carlo` (sampling) estimate the same
  quantity; they must agree within the estimator's statistical error.
* **Dissemination** — the discrete-event :mod:`repro.runtime` engine
  must reproduce the batch :func:`simulate_dissemination` counts
  exactly on a fault-free shared seed.
* **Batch planes** — the vectorized event paths must be *sha256-bit-
  identical* to their scalar twins: chunked simulation with the
  heuristic matcher vs event-at-a-time simulation with brute force
  (:func:`simulator_batch_oracle`), epoch-mode engine runs vs scalar
  heap stepping (:func:`epoch_runtime_oracle`).

Each harness returns an :class:`OracleReport`; ``repro verify`` and the
differential test suite treat any disagreement as a failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.problem import SAProblem, SASolution
from ..geometry import Rect, RectSet, union_volume, union_volume_monte_carlo
from ..pubsub.events import EventDistribution, UniformEvents
from ..pubsub.matching import BruteForceMatcher, GridMatcher, Matcher
from ..pubsub.rtree import RTreeMatcher
from ..pubsub.simulator import simulate_dissemination
from ..runtime import DisseminationEngine, RuntimeConfig

__all__ = ["OracleReport", "matcher_oracle", "volume_oracle",
           "runtime_oracle", "simulator_batch_oracle",
           "epoch_runtime_oracle", "solution_oracles"]


def _sha256(payload: dict[str, Any]) -> str:
    """Canonical digest of a JSON-ready result dict."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class OracleReport:
    """Verdict of one differential comparison."""

    name: str
    agree: bool
    detail: str
    max_error: float | None = None   #: worst numeric deviation, when numeric
    tolerance: float | None = None   #: bound the deviation was held to

    def __str__(self) -> str:
        verdict = "agree" if self.agree else "DISAGREE"
        return f"[{self.name}] {verdict}: {self.detail}"


def matcher_oracle(subscriptions: RectSet, domain: Rect,
                   events: np.ndarray, *,
                   grid_resolution: int = 16,
                   scalar_samples: int = 32) -> OracleReport:
    """All three matching indexes must produce identical match matrices.

    Two agreements are checked per matcher: its batched ``match_points``
    matrix must equal the brute-force oracle's, and its scalar
    ``match_point`` must reproduce the corresponding matrix column on
    the first ``scalar_samples`` events (batch/scalar self-consistency).
    The grid is also run on the stream cycled to a block on each side of
    its ``scan_below`` crossover, so both its scan and its bucket probe
    meet the oracle.
    """
    events = np.asarray(events, dtype=float)
    expected = BruteForceMatcher(subscriptions).match_points(events)
    mismatches = []
    grid = GridMatcher(subscriptions, domain, resolution=grid_resolution)
    matchers: list[tuple[str, Matcher]] = [
        ("brute", BruteForceMatcher(subscriptions)),
        ("grid", grid),
        ("rtree", RTreeMatcher(subscriptions)),
    ]
    n = events.shape[0]
    sides = (max(grid.scan_below - 1, 1), max(grid.scan_below, n))
    for size in sides if n else ():
        cycled = np.arange(size) % n
        if not np.array_equal(grid.match_points(events[cycled]),
                              expected[:, cycled]):
            mismatches.append(f"grid: {size}-event block disagrees")
    for name, matcher in matchers:
        got = matcher.match_points(events)
        wrong = int(np.sum(got != expected))
        if wrong:
            mismatches.append(f"{name}: {wrong} cells differ")
        for j in range(min(scalar_samples, events.shape[0])):
            ids = np.asarray(matcher.match_point(events[j]), dtype=int)
            if not np.array_equal(np.flatnonzero(got[:, j]), ids):
                mismatches.append(
                    f"{name}: scalar/batch disagree at event {j}")
                break
    detail = (f"{len(subscriptions)} subscriptions x {events.shape[0]} "
              f"events; " + ("; ".join(mismatches) if mismatches
                             else "all three matchers agree exactly in "
                                  "batch and scalar mode"))
    return OracleReport(name="matcher", agree=not mismatches, detail=detail,
                        max_error=float(len(mismatches)), tolerance=0.0)


def volume_oracle(rects: RectSet, rng: np.random.Generator, *,
                  samples: int = 200_000,
                  sigmas: float = 5.0) -> OracleReport:
    """Exact union volume vs Monte Carlo, within ``sigmas`` standard errors.

    The MC estimator samples inside the set's MEB; its standard error is
    ``V_meb * sqrt(p (1 - p) / samples)`` for covered fraction ``p``, so
    the tolerance is statistical, not an arbitrary epsilon.
    """
    exact = union_volume(rects)
    estimate = union_volume_monte_carlo(rects, rng, samples=samples)
    if len(rects) == 0 or rects.meb().volume() == 0.0:
        agree = estimate == exact == 0.0
        return OracleReport(name="volume", agree=agree,
                            detail=f"degenerate set: exact={exact}, "
                                   f"mc={estimate}",
                            max_error=abs(estimate - exact), tolerance=0.0)
    meb_volume = rects.meb().volume()
    p = min(max(exact / meb_volume, 0.0), 1.0)
    stderr = meb_volume * float(np.sqrt(p * (1.0 - p) / samples))
    tolerance = sigmas * stderr + 1e-12 * meb_volume
    error = abs(estimate - exact)
    return OracleReport(
        name="volume", agree=error <= tolerance,
        detail=f"exact={exact:.6g}, mc={estimate:.6g} "
               f"({samples} samples, {sigmas} sigma tolerance)",
        max_error=error, tolerance=tolerance)


def runtime_oracle(problem: SAProblem, solution: SASolution,
                   distribution: EventDistribution, *, seed: int = 0,
                   num_events: int = 400) -> OracleReport:
    """Fault-free engine run vs the batch simulator on a shared seed.

    Both consume the event stream through the same chunked sampler, so
    per-node entries, per-subscriber deliveries, and misses must be
    *identical*, not merely close.  The engine steps scalar
    (``epoch_batch=0``), so the heap path is held to the simulator too;
    :func:`epoch_runtime_oracle` holds the epoch path to the heap path.
    """
    batch = simulate_dissemination(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions, distribution, np.random.default_rng(seed),
        num_events=num_events, subscriber_points=problem.subscriber_points)
    engine = DisseminationEngine(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions, config=RuntimeConfig(epoch_batch=0),
        subscriber_points=problem.subscriber_points)
    live = engine.run(distribution, np.random.default_rng(seed), num_events)

    differences = []
    if not np.array_equal(live.node_entries, batch.node_entries):
        differences.append("node entries")
    if not np.array_equal(live.deliveries, batch.deliveries):
        differences.append("deliveries")
    if not np.array_equal(live.missed, batch.missed):
        differences.append("missed")
    detail = (f"{num_events} events, seed {seed}; "
              + (", ".join(differences) + " differ" if differences
                 else "entries, deliveries, and misses identical"))
    return OracleReport(name="runtime", agree=not differences, detail=detail,
                        max_error=float(len(differences)), tolerance=0.0)


def simulator_batch_oracle(problem: SAProblem, solution: SASolution,
                           distribution: EventDistribution, *,
                           seed: int = 0, num_events: int = 400,
                           chunk_size: int = 512) -> OracleReport:
    """Chunked simulation with the heuristic matcher vs scalar brute force.

    Runs :func:`simulate_dissemination` twice on the same seed: once
    event-at-a-time (``chunk_size=1``) with the :class:`BruteForceMatcher`
    oracle, once chunked with the default :func:`best_matcher` index.
    The two :class:`SimulationResult` payloads must be sha256-identical —
    the batch plane is only trusted bit-for-bit.  Requires a chunk-stable
    distribution (``UniformEvents``): the sampler must emit the same
    point stream regardless of how draws are split into chunks.
    """
    def run(chunk: int, matcher: Matcher | None) -> dict[str, Any]:
        return simulate_dissemination(
            problem.tree, solution.filters, solution.assignment,
            problem.subscriptions, distribution,
            np.random.default_rng(seed), num_events=num_events,
            chunk_size=chunk, subscriber_points=problem.subscriber_points,
            matcher=matcher).to_dict()

    scalar = run(1, BruteForceMatcher(problem.subscriptions))
    batched = run(chunk_size, None)
    scalar_sha, batched_sha = _sha256(scalar), _sha256(batched)
    agree = scalar_sha == batched_sha
    detail = (f"{num_events} events, seed {seed}, chunk {chunk_size}; "
              + (f"sha256 {scalar_sha[:12]} identical" if agree
                 else f"sha256 differ: scalar {scalar_sha[:12]} vs "
                      f"batched {batched_sha[:12]}"))
    return OracleReport(name="simulator-batch", agree=agree, detail=detail,
                        max_error=float(not agree), tolerance=0.0)


def epoch_runtime_oracle(problem: SAProblem, solution: SASolution,
                         distribution: EventDistribution, *, seed: int = 0,
                         num_events: int = 400,
                         epoch_batch: int = 128) -> OracleReport:
    """Epoch-mode engine run vs scalar heap stepping: sha256-identical.

    Both runs share the seed and the full config; only ``epoch_batch``
    differs.  When the tree has more than one node, a mid-run crash and
    recovery are scheduled so the oracle also exercises the epoch
    barrier logic (controls split the event column into batchable
    prefixes).  The complete :meth:`RuntimeResult.to_dict` payload —
    counts, duration, queue peaks, and telemetry — must hash equal.
    """
    interval = 1.0
    crash_at = interval * num_events * 0.25
    recover_at = interval * num_events * 0.75

    def run(epoch: int) -> dict[str, Any]:
        engine = DisseminationEngine(
            problem.tree, solution.filters, solution.assignment,
            problem.subscriptions,
            config=RuntimeConfig(publish_interval=interval,
                                 epoch_batch=epoch),
            subscriber_points=problem.subscriber_points)
        if problem.tree.num_nodes > 1:
            engine.schedule_crash(crash_at, 1)
            engine.schedule_recover(recover_at, 1)
        return engine.run(distribution, np.random.default_rng(seed),
                          num_events).to_dict()

    scalar_sha = _sha256(run(0))
    epoch_sha = _sha256(run(epoch_batch))
    agree = scalar_sha == epoch_sha
    detail = (f"{num_events} events, seed {seed}, epoch batch {epoch_batch}, "
              f"crash/recover barrier; "
              + (f"sha256 {scalar_sha[:12]} identical" if agree
                 else f"sha256 differ: scalar {scalar_sha[:12]} vs "
                      f"epoch {epoch_sha[:12]}"))
    return OracleReport(name="runtime-epoch", agree=agree, detail=detail,
                        max_error=float(not agree), tolerance=0.0)


def solution_oracles(problem: SAProblem, solution: SASolution,
                     domain: Rect, *, seed: int = 0,
                     match_events: int = 256, num_events: int = 400,
                     mc_samples: int = 200_000) -> list[OracleReport]:
    """Run every applicable differential oracle against one solution.

    The matcher oracle runs over the problem's subscription set, the
    volume oracle over the union of all filter rectangles (the quantity
    the bandwidth objective integrates), and the runtime, batch-simulator,
    and epoch-runtime oracles over the solution itself.
    """
    rng = np.random.default_rng(seed)
    distribution = UniformEvents(domain)
    reports = [matcher_oracle(problem.subscriptions, domain,
                              distribution.sample(rng, match_events))]

    filter_rects = RectSet.empty(problem.event_dim)
    for _node, filt in sorted(solution.filters.items()):
        if not filt.is_empty():
            filter_rects = filter_rects.concat(filt.rects)
    if len(filter_rects):
        reports.append(volume_oracle(filter_rects, rng, samples=mc_samples))

    reports.append(runtime_oracle(problem, solution, distribution,
                                  seed=seed, num_events=num_events))
    reports.append(simulator_batch_oracle(problem, solution, distribution,
                                          seed=seed, num_events=num_events))
    reports.append(epoch_runtime_oracle(problem, solution, distribution,
                                        seed=seed, num_events=num_events))
    return reports
