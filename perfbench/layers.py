"""Which public functions the traced run wraps, and the per-layer table.

Every workload prints every per-layer metric; a layer a workload never
enters reads 0 there, measured rather than assumed, because the same
wrappers are installed on every workload of a plane.

Normalisation (so a faster layer shows as a smaller number, not as more
work squeezed into the same fixed run length):

* solver layers (``core.slp.*``, ``perf.fastlp.*``, ``flow.*``,
  ``verify.*``) are seconds per assignment: per SLP run on ``assign``,
  per re-optimization on the serve workloads;
* event-plane and serve hot-path layers are seconds per 1000 events;
* ``serve.broker.reoptimize_s`` and ``dynamic.manager.reoptimize_s``
  are self seconds per re-optimization.
"""

from __future__ import annotations

import importlib
from typing import Any

from tracer import Tracer

SLP_STAGES = ("lp_assemble", "lp_solve", "lp_round", "filtergen", "assign",
              "adjust", "aggregate", "rebalance", "expand", "coverage_check",
              "prune", "lp_decompose")

def _matchers() -> list[Any]:
    """Every matching index ``best_matcher`` can choose."""
    from repro.pubsub.matching import BruteForceMatcher, GridMatcher
    from repro.pubsub.rtree import RTreeMatcher
    return [BruteForceMatcher, GridMatcher, RTreeMatcher]


def install_solver(tracer: Tracer) -> None:
    """LP solves and max-flow; SLP stages come from the profiler bridge."""
    from repro.flow.dinic import Dinic
    from repro.perf import fastlp

    # The package re-exports a function of the same name as the module.
    lp_relax = importlib.import_module("repro.core.slp.lp_relax")
    tracer.wrap(lp_relax, "solve_bounded_lp", "perf.fastlp.solve_bounded_lp")
    tracer.wrap(fastlp, "solve_bounded_lp", "perf.fastlp.solve_bounded_lp")
    tracer.wrap(Dinic, "max_flow", "flow.maxflow")


def install_event_plane(tracer: Tracer) -> None:
    """Sampling, entry masks, matcher builds and match matrices."""
    from repro.geometry import RectSet
    from repro.pubsub import simulator
    from repro.pubsub.events import UniformEvents
    from repro.pubsub.filters import Filter
    from repro.runtime import engine

    planes = ("pubsub.simulate", "runtime.engine")
    inner = ("pubsub.match_points", "pubsub.matcher_build")
    for owner in (RectSet, Filter):
        tracer.wrap(owner, "contains_points", "pubsub.entry_masks",
                    only_inside=planes, skip_inside=inner)

    def cells(result: Any, *_args: Any, **_kwargs: Any) -> None:
        tracer.count("pubsub.match_cells", int(result.size))

    for cls in _matchers():
        tracer.wrap(cls, "match_points", "pubsub.match_points", on_call=cells)
    for module in (simulator, engine):
        tracer.wrap(module, "best_matcher", "pubsub.matcher_build")
    tracer.wrap(UniformEvents, "sample", "pubsub.sample")


def install_serve(tracer: Tracer) -> None:
    """The daemon's publish path, churn path and re-optimization."""
    from repro.dynamic.manager import DynamicPubSub
    from repro.serve import protocol, reoptimizer
    from repro.serve.broker import LiveBroker, RoutingTable

    tracer.wrap(protocol, "decode_frame", "serve.protocol.decode_frame")
    tracer.wrap(protocol, "encode_frame", "serve.protocol.encode_frame")
    tracer.wrap(LiveBroker, "publish", "serve.broker.publish")
    tracer.wrap(LiveBroker, "subscribe", "serve.broker.subscribe")
    tracer.wrap(LiveBroker, "unsubscribe", "serve.broker.unsubscribe")
    tracer.wrap(LiveBroker, "reoptimize", "serve.broker.reoptimize")
    tracer.wrap(RoutingTable, "route", "serve.routing.route")
    for cls in _matchers():
        tracer.wrap(cls, "match_point", "serve.match_point")
    tracer.wrap(DynamicPubSub, "reoptimize", "dynamic.manager.reoptimize")
    tracer.wrap(reoptimizer, "verify_solution", "verify.verify_solution")

    write_frames = protocol.write_frames

    async def counted_write_frames(writer: Any, payloads: list) -> None:
        tracer.count("serve.write_frames_calls")
        tracer.count("serve.frames_written", len(payloads))
        await write_frames(writer, payloads)

    tracer.patch(protocol, "write_frames", counted_write_frames)
    install_solver(tracer)


def per_layer(rows: dict[str, dict[str, float]], counts: dict[str, int], *,
              assignments: int, kevents: float, reopts: int,
              extra: dict[str, float]) -> dict[str, float]:
    """The per-layer metric values of one traced run.

    ``rows`` and ``counts`` are a tracer's :meth:`Tracer.layers` and
    counters; ``assignments``, ``kevents`` and ``reopts`` are the
    normalising counts; ``extra`` carries the metrics measured outside
    the tracer (``stats`` op counters, generator health, ratios).
    """

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0)

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    out: dict[str, float] = {}
    for stage in SLP_STAGES:
        out[f"core.slp.{stage}_s"] = per(self_s(f"core.slp.{stage}"),
                                         assignments)
    out["core.slp.self_s"] = per(self_s("core.slp"), assignments)
    lp = rows.get("perf.fastlp.solve_bounded_lp", {})
    out["perf.fastlp.solve_bounded_lp_s"] = per(lp.get("self_s", 0.0),
                                                assignments)
    out["perf.fastlp.solve_bounded_lp_calls"] = per(lp.get("calls", 0),
                                                    assignments)
    out["flow.maxflow_s"] = per(self_s("flow.maxflow"), assignments)
    out["verify.verify_solution_s"] = per(self_s("verify.verify_solution"),
                                          assignments)
    for name in ("pubsub.sample", "pubsub.entry_masks", "pubsub.match_points",
                 "pubsub.matcher_build", "pubsub.simulate", "runtime.engine",
                 "serve.protocol.decode_frame", "serve.protocol.encode_frame",
                 "serve.broker.publish", "serve.routing.route",
                 "serve.match_point"):
        key = {"pubsub.simulate": "pubsub.simulate.self",
               "runtime.engine": "runtime.engine.self"}.get(name, name)
        out[f"{key}_s"] = per(self_s(name), kevents)
    out["pubsub.match_cells"] = per(counts.get("pubsub.match_cells", 0),
                                    kevents)
    out["serve.frames_per_write"] = per(
        counts.get("serve.frames_written", 0),
        counts.get("serve.write_frames_calls", 0))
    out["serve.broker.reoptimize_s"] = per(self_s("serve.broker.reoptimize"),
                                           reopts)
    out["dynamic.manager.reoptimize_s"] = per(
        self_s("dynamic.manager.reoptimize"), reopts)
    out.update(extra)
    return out
