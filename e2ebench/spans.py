"""Span recording for the traced benchmark run.

The traced run measures each layer from outside: it replaces public
functions of the ``repro`` package, at the name their caller looks them
up under, with wrappers that record a wall-clock span (name, start,
end, parent) and, for some layers, an exact work count.  Nothing here
is installed in the untraced run, and :meth:`Patches.restore` puts
every original back.

Spans are kept in memory.  A span opened on a thread with no open span
of its own (the HTTP handler thread of the serve workload) hangs under
the op that is in flight, so one op's spans form one tree whatever
thread they ran on.  Self time is a span's duration minus the part of
it its children cover; the op's own remainder is charged to the op's
root layer, so an op's self times sum to its traced latency.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: count hook: (op counters, wrapped call's result, its positional args)
CountFn = Callable[[Counter, Any, tuple], None]


@dataclass
class SpanRecord:
    name: str
    start: float
    end: float
    #: index of the parent span in :attr:`SpanRecorder.spans`; -1 for an op
    parent: int
    #: index of the op this span belongs to
    op: int
    #: 0 for the client thread that issues the ops, 1 for any other thread
    lane: int


class SpanRecorder:
    """Nested wall-clock spans and per-op counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        #: one Counter per op, in op order
        self.counts: List[Counter] = []
        self.t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._root = -1  # span index of the op in flight, -1 between ops

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: int) -> int:
        lane = 0 if threading.get_ident() == self._client else 1
        op = self.spans[parent].op if parent >= 0 else len(self.counts) - 1
        with self._lock:
            self.spans.append(
                SpanRecord(name, time.perf_counter(), 0.0, parent, op, lane)
            )
            return len(self.spans) - 1

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one benchmark op; counters start afresh."""
        self.counts.append(Counter())
        idx = self._open(name, -1)
        self._root = idx
        stack = self._stack()
        stack.append(idx)
        try:
            yield
        finally:
            stack.pop()
            self.spans[idx].end = time.perf_counter()
            self._root = -1

    def wrap(self, fn: Callable, name: Optional[str], count: Optional[CountFn] = None):
        """``fn`` recording a span ``name`` (None: counts only) in an op."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            if parent < 0:  # outside any op: set-up work, not recorded
                return fn(*args, **kwargs)
            idx = -1
            if name is not None:
                idx = self._open(name, parent)
                stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx >= 0:
                    stack.pop()
                    self.spans[idx].end = time.perf_counter()
            if count is not None:
                op = self.spans[parent].op
                with self._lock:
                    count(self.counts[op], result, args)
            return result

        return wrapper


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, obj: Any, attr: str, value: Any) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


def _add(key: str, amount: Callable[[Any, tuple], float]) -> CountFn:
    def count(counts: Counter, result: Any, args: tuple) -> None:
        counts[key] += amount(result, args)

    return count


def install(rec: SpanRecorder) -> Patches:
    """Wrap every measured layer entry point; returns the undo record."""
    import repro.cli as cli
    import repro.core.pipeline as pipeline
    import repro.metrics.report as report
    import repro.sampling as sampling
    import repro.sampling.estimate as estimate
    import repro.serve.service as service
    import repro.sweep.executor as executor
    from repro.sim.simulator import Simulator
    from repro.sweep.cache import ResultCache
    from repro.trace.trace import Trace

    events_read = _add("trace.events", lambda r, a: len(r))
    sites = [
        # (object, attribute, span name, count hook)
        (cli, "read_trace", "trace.read", events_read),
        (service, "read_trace", "trace.read", events_read),
        (Trace, "digest", "trace.digest", None),
        (pipeline, "translate", "core.translate", None),
        (pipeline, "simulate", "sim.simulate", None),
        (Simulator, "run", None,
         _add("sim.events", lambda r, a: a[0].env.processed_event_count)),
        (report, "predict_summary", "metrics.report", None),
        (service, "predict_summary", "metrics.report", None),
        (executor, "result_record", "metrics.record", None),
        (service, "result_record", "metrics.record", None),
        (sampling, "estimate_sampled", "sampling.estimate",
         _add("sampling.events_simulated", lambda r, a: r.events_simulated)),
        (estimate, "split_trace", "sampling.split", None),
        (estimate, "build_plan", "sampling.plan",
         _add("sampling.plans_built", lambda r, a: 1)),
        (estimate, "representative_trace", "sampling.represent", None),
        (estimate, "extrapolate", "sampling.represent", None),
        (ResultCache, "get", "sweep.cache_get",
         lambda c, r, a: c.update(
             {"sweep.cache_lookups": 1, "sweep.cache_hits": r is not None})),
        (ResultCache, "put", "sweep.cache_put", None),
        (service, "validate_predict_request", "serve.validate", None),
        (service.ExtrapService, "predict", "serve.service",
         lambda c, r, a: c.update(
             {"serve.requests": 1, "serve.hits": bool(r["cached"])})),
    ]
    patches = Patches()
    for obj, attr, name, count in sites:
        patches.set(obj, attr, rec.wrap(getattr(obj, attr), name, count))
    return patches


def self_times(spans: List[SpanRecord]) -> List[float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(i, ()), key=lambda j: spans[j].start):
            lo = max(spans[c].start, edge)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(s.end - s.start - covered)
    return out


def write_chrome_trace(rec: SpanRecorder, path: Path, *, program: str, label: str) -> Path:
    """Export the spans through :mod:`repro.obs.export` (Perfetto-loadable).

    Timestamps are wall-clock microseconds since the recorder started;
    track 0 is the client thread, track 1 any other thread (serve handler).
    """
    from repro.obs.export import write_chrome_trace as write
    from repro.obs.recorder import TimelineRecorder

    timeline = TimelineRecorder()
    end = 0.0
    for s in rec.spans:
        t0 = (s.start - rec.t0) * 1e6
        t1 = (s.end - rec.t0) * 1e6
        timeline.span(s.lane, s.name, t0, t1)
        end = max(end, t1)
    path.parent.mkdir(parents=True, exist_ok=True)
    return write(
        timeline.finalize(n_procs=2, end_time=end, program=program, params_name=label),
        path,
    )
