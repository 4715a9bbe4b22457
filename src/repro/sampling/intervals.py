"""Interval splitting and event-signature vectors.

A trace is cut into *intervals* — the sampling unit — either at barrier
boundaries (each interval is one compute phase plus the barrier episode
that closes it; the natural period of a pC++-style program) or into
fixed-event-count chunks for barrier-less traces.  Every interval gets a
:data:`SIGNATURE_FIELDS` vector summarising what the program did in it;
clustering (:mod:`repro.sampling.cluster`) runs on those vectors.

Signatures are computed in one pass over the trace's event list, and
every interval keeps its own events so its representative can be lifted
into a standalone trace (:func:`repro.sampling.estimate.representative_trace`).

Barrier-mode semantics: a thread's events belong to interval ``k`` until
(and including) its ``BARRIER_EXIT`` of its ``k``-th barrier episode.
Because pC++ barriers are global, per-thread epochs stay within one of
each other, and every interval holds one complete episode per thread —
which is what makes an interval independently simulatable.  Event-count
mode only ever cuts while no thread is inside an open barrier, for the
same reason.

The compute gap *before* a thread's first event of an interval (from
that thread's last event of the previous interval) is charged to the
current interval, matching how the representative sub-trace is
reconstructed (see :func:`repro.sampling.estimate.representative_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.sampling.config import SamplingConfig
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace, TraceMeta

#: Signature vector layout, in order.  Kind counts first (one per
#: :class:`~repro.trace.events.EventKind`), then traffic, compute, and
#: shape features.
SIGNATURE_FIELDS: Tuple[str, ...] = tuple(
    f"n_{kind.name.lower()}" for kind in EventKind
) + (
    "read_bytes",
    "write_bytes",
    "compute_time",
    "imbalance",
    "comm_imbalance",
    "max_thread_bytes",
    "duration",
)


@dataclass
class Interval:
    """One sampling unit of a trace.

    ``signature`` is the raw (unnormalised) :data:`SIGNATURE_FIELDS`
    vector.  ``prev_times`` maps each thread that appears in the
    interval to the time of its previous event *anywhere* in the trace
    (used to reconstruct the leading compute gap when the interval is
    simulated standalone).  ``events`` are the interval's own events,
    in trace order.
    """

    index: int
    first_time: float
    last_time: float
    signature: Tuple[float, ...]
    prev_times: Dict[int, float]
    events: List[TraceEvent]

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time


@dataclass
class IntervalSplit:
    """All intervals of one trace plus how they were cut."""

    mode: str  # "barrier" or "events" (resolved; never "auto")
    interval_events: int  # chunk size used (0 in barrier mode)
    intervals: List[Interval]
    events_total: int

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)


@dataclass
class _Bucket:
    """Accumulator for one interval during the split."""

    first_time: float
    last_time: float = 0.0
    counts: List[int] = field(default_factory=lambda: [0] * len(EventKind))
    read_bytes: int = 0
    write_bytes: int = 0
    compute: Dict[int, float] = field(default_factory=dict)
    remote_counts: Dict[int, int] = field(default_factory=dict)
    remote_bytes: Dict[int, int] = field(default_factory=dict)
    prev_times: Dict[int, float] = field(default_factory=dict)
    events: List[TraceEvent] = field(default_factory=list)


class _IntervalBuilder:
    """One-pass interval accumulator over a time-ordered event list."""

    def __init__(self, meta: TraceMeta, mode: str, chunk: int):
        self.meta = meta
        self.mode = mode  # "barrier" or "events"
        self.chunk = chunk
        self.events_total = 0
        self._buckets: List[_Bucket] = []
        self._prev_time: Dict[int, float] = {}  # thread -> last event time
        self._thread_epoch: Dict[int, int] = {}  # barrier mode
        self._global_epoch = 0  # events mode
        self._chunk_count = 0
        self._open_barriers: Dict[int, int] = {}  # thread -> open barrier id

    def _bucket(self, epoch: int, ev: TraceEvent) -> _Bucket:
        while len(self._buckets) <= epoch:
            self._buckets.append(_Bucket(first_time=ev.time))
        return self._buckets[epoch]

    def add(self, ev: TraceEvent) -> None:
        th = ev.thread
        if self.mode == "events":
            epoch = self._global_epoch
        else:
            epoch = self._thread_epoch.get(th, 0)
        bucket = self._bucket(epoch, ev)

        prev = self._prev_time.get(th)
        if th not in bucket.prev_times:
            # First event of this thread in this interval: remember where
            # it was coming from, so the leading compute gap survives
            # standalone simulation.
            bucket.prev_times[th] = prev if prev is not None else ev.time
        gap = 0.0
        if prev is not None and ev.kind != EventKind.BARRIER_EXIT:
            gap = ev.time - prev  # barrier-exit gaps are wait, not compute
        bucket.compute[th] = bucket.compute.get(th, 0.0) + gap
        bucket.counts[int(ev.kind)] += 1
        if ev.kind == EventKind.REMOTE_READ:
            bucket.read_bytes += ev.nbytes
        elif ev.kind == EventKind.REMOTE_WRITE:
            bucket.write_bytes += ev.nbytes
        if ev.kind in (EventKind.REMOTE_READ, EventKind.REMOTE_WRITE):
            bucket.remote_counts[th] = bucket.remote_counts.get(th, 0) + 1
            bucket.remote_bytes[th] = bucket.remote_bytes.get(th, 0) + ev.nbytes
        bucket.last_time = ev.time
        bucket.events.append(ev)

        self._prev_time[th] = ev.time
        self.events_total += 1

        if ev.kind == EventKind.BARRIER_ENTER:
            self._open_barriers[th] = ev.barrier_id
        elif ev.kind == EventKind.BARRIER_EXIT:
            self._open_barriers.pop(th, None)
            if self.mode == "barrier":
                self._thread_epoch[th] = epoch + 1

        if self.mode == "events":
            self._chunk_count += 1
            # Only cut between complete barrier episodes, so every chunk
            # is a structurally valid sub-trace.
            if self._chunk_count >= self.chunk and not self._open_barriers:
                self._global_epoch += 1
                self._chunk_count = 0

    def finish(self) -> List[Interval]:
        n = self.meta.n_threads
        intervals: List[Interval] = []
        for i, b in enumerate(self._buckets):
            per_thread = [b.compute.get(t, 0.0) for t in range(n)] or [0.0]
            compute_total = sum(per_thread)
            imbalance = max(per_thread) - min(per_thread)
            per_remote = [b.remote_counts.get(t, 0) for t in range(n)] or [0]
            per_bytes = [b.remote_bytes.get(t, 0) for t in range(n)] or [0]
            signature = tuple(
                float(c) for c in b.counts
            ) + (
                float(b.read_bytes),
                float(b.write_bytes),
                compute_total,
                imbalance,
                float(max(per_remote) - min(per_remote)),
                float(max(per_bytes)),
                b.last_time - b.first_time,
            )
            intervals.append(
                Interval(
                    index=i,
                    first_time=b.first_time,
                    last_time=b.last_time,
                    signature=signature,
                    prev_times=dict(b.prev_times),
                    events=b.events,
                )
            )
        return intervals


def compute_intervals(
    meta: TraceMeta,
    events: Sequence[TraceEvent],
    *,
    mode: str,
    interval_events: int,
) -> IntervalSplit:
    """Single-pass split of an event list in a *resolved* mode.

    ``mode`` must be ``"barrier"`` or ``"events"`` — ``auto`` resolution
    (which may need a second pass) lives in :func:`split_trace`.
    """
    if mode not in ("barrier", "events"):
        raise ValueError(f"unresolved interval mode {mode!r}")
    builder = _IntervalBuilder(meta, mode, interval_events)
    for ev in events:
        builder.add(ev)
    return IntervalSplit(
        mode=mode,
        interval_events=interval_events if mode == "events" else 0,
        intervals=builder.finish(),
        events_total=builder.events_total,
    )


def split_trace(trace: Trace, config: SamplingConfig) -> IntervalSplit:
    """Split a trace into signed intervals, resolving ``auto`` mode."""
    meta, events = trace.meta, trace.events
    chunk = config.effective_interval_events()
    if config.mode == "events":
        return compute_intervals(
            meta, events, mode="events", interval_events=chunk
        )
    split = compute_intervals(meta, events, mode="barrier", interval_events=0)
    if config.mode == "auto" and split.n_intervals <= 1:
        # No barriers to cut at — fall back to fixed-size chunks.
        return compute_intervals(
            meta, events, mode="events", interval_events=chunk
        )
    return split
