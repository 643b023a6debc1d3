"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.wrap`
replaces a public function or method with a timing wrapper, and
:class:`ProfilerBridge` turns the library's own ``perf.profiler`` stage
records into spans.  Each span keeps its name, start, end, thread and
request id; parents are assigned when the run ends, by interval
containment within a thread, so wrapped calls and profiler stages nest
correctly however they were recorded.

A layer's self time is its spans' duration minus the part covered by
child spans.  Spans flagged as *roots* (the benchmark's own operation
spans) count as unattributed: time inside an operation that no layer
span explains.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable

from repro.perf.profiler import Profiler

__all__ = ["Tracer", "ProfilerBridge", "NULL_TRACER"]

#: Containment slack: a profiler stage's start is reconstructed from its
#: end and duration, so it can lag the true start by a few microseconds.
_EPS = 20e-6


class Tracer:
    """Records spans and counters; computes per-layer self time."""

    def __init__(self, roots: Iterable[str] = ()) -> None:
        self.roots = set(roots)
        self.spans: list[tuple[str, float, float, int, Any]] = []
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []
        self._parents: list[int] | None = None

    # -- recording -----------------------------------------------------------

    def _open(self) -> Counter[str]:
        open_names = getattr(self._local, "open", None)
        if open_names is None:
            open_names = self._local.open = Counter()
        return open_names

    def add(self, name: str, start: float, end: float,
            request: Any = None) -> None:
        """Record one finished span of the calling thread."""
        if request is None:
            request = getattr(self._local, "request", None)
        self.spans.append((name, start, end, threading.get_ident(), request))

    @contextmanager
    def span(self, name: str, request: Any = None):
        """Time a block; ``request`` tags it and every span nested in it."""
        previous = getattr(self._local, "request", None)
        if request is not None:
            self._local.request = request
        open_names = self._open()
        open_names[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            open_names[name] -= 1
            self._local.request = previous
            self.add(name, start, end, request)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def wrap(self, owner: Any, attr: str, name: str, *,
             skip_inside: tuple[str, ...] = (),
             only_inside: tuple[str, ...] = (),
             on_call: Callable[..., None] | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``skip_inside`` leaves calls made while one of those spans is
        open untraced (a matcher's inner containment is matching, not an
        entry mask); ``only_inside``, when given, traces only calls made
        inside one of those spans (geometry called by the event plane,
        not by the solver).  ``on_call(result, *args, **kwargs)`` may
        record counters from the call.
        """
        original = getattr(owner, attr)
        tracer = self
        skip = tuple(set(skip_inside) | {name})

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            open_names = tracer._open()
            if any(open_names[s] for s in skip) or (
                    only_inside and not any(open_names[s]
                                            for s in only_inside)):
                return original(*args, **kwargs)
            open_names[name] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_names[name] -= 1
                tracer.add(name, start, end)
            if on_call is not None:
                on_call(result, *args, **kwargs)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def parents(self) -> list[int]:
        """Parent span index per span (-1 for top level), by containment."""
        if self._parents is not None and len(self._parents) == len(self.spans):
            return self._parents
        parents = [-1] * len(self.spans)
        by_thread: dict[int, list[int]] = defaultdict(list)
        for i, (_n, _s, _e, tid, _r) in enumerate(self.spans):
            by_thread[tid].append(i)
        for indices in by_thread.values():
            indices.sort(key=lambda i: (self.spans[i][1], -self.spans[i][2]))
            stack: list[int] = []
            for i in indices:
                start, end = self.spans[i][1], self.spans[i][2]
                while stack and not (start >= self.spans[stack[-1]][1] - _EPS
                                     and end <= self.spans[stack[-1]][2] + _EPS):
                    stack.pop()
                if stack:
                    parents[i] = stack[-1]
                stack.append(i)
        self._parents = parents
        return parents

    def layers(self, window: tuple[float, float] | None = None,
               thread: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds.

        ``window`` keeps only spans that start inside ``[t0, t1]``;
        ``thread`` only the spans of that thread.
        """
        parents = self.parents()
        child_time = [0.0] * len(self.spans)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += self.spans[i][2] - self.spans[i][1]
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, tid, _req) in enumerate(self.spans):
            if window is not None and not window[0] <= start <= window[1]:
                continue
            if thread is not None and tid != thread:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += max(end - start - child_time[i], 0.0)
        return out

    def attributed_seconds(self, window: tuple[float, float] | None = None,
                           thread: int | None = None) -> float:
        """Self seconds of every layer span (roots excluded)."""
        return sum(row["self_s"]
                   for name, row in self.layers(window, thread).items()
                   if name not in self.roots)

    def dump(self, path: str) -> None:
        """Write every span (with its parent) as JSON lines."""
        parents = self.parents()
        with open(path, "w", encoding="utf-8") as fh:
            for (name, start, end, tid, req), parent in zip(self.spans,
                                                            parents):
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "thread": tid,
                                     "parent": parent, "request": req}))
                fh.write("\n")


class _NullTracer:
    """The untraced run: every hook is a no-op."""

    @contextmanager
    def span(self, name: str, request: Any = None):
        yield

    def count(self, name: str, amount: int = 1) -> None:
        pass


NULL_TRACER = _NullTracer()


class ProfilerBridge(Profiler):
    """A ``perf.profiler`` profiler that also feeds stages to a tracer.

    ``Profiler.record`` is called when a stage ends with its duration, so
    the span's start is reconstructed as ``now - seconds``.
    """

    def __init__(self, tracer: Tracer, prefix: str) -> None:
        super().__init__()
        self._tracer = tracer
        self._prefix = prefix

    def record(self, name: str, seconds: float) -> None:
        super().record(name, seconds)
        end = time.perf_counter()
        self._tracer.add(self._prefix + name, end - seconds, end)
