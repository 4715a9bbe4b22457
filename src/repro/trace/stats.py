"""Trace statistics.

Section 4.1 of the paper uses "trace statistics" to reason about
bottlenecks (e.g. noticing Grid has only 650 barriers, or that remote
transfers were recorded at the whole-element size).  This module computes
those statistics from a merged or translated trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.trace.events import EventKind
from repro.trace.trace import Trace


@dataclass
class TraceStats:
    """Summary statistics of a trace.

    All times in microseconds.
    """

    n_threads: int = 0
    n_events: int = 0
    n_barriers: int = 0
    n_remote_reads: int = 0
    n_remote_writes: int = 0
    remote_bytes_total: int = 0
    remote_bytes_min: int = 0
    remote_bytes_max: int = 0
    duration: float = 0.0
    compute_time_per_thread: List[float] = field(default_factory=list)

    @property
    def total_compute_time(self) -> float:
        return sum(self.compute_time_per_thread)

    def summary(self) -> str:
        """One-paragraph human-readable summary."""
        return (
            f"{self.n_threads} threads, {self.n_events} events, "
            f"{self.n_barriers} barriers, "
            f"{self.n_remote_reads} remote reads / {self.n_remote_writes} writes "
            f"({self.remote_bytes_total} bytes, "
            f"min {self.remote_bytes_min} / max {self.remote_bytes_max}), "
            f"span {self.duration:.1f} us, "
            f"compute {self.total_compute_time:.1f} us"
        )


def compute_stats(trace: Trace) -> TraceStats:
    """Compute :class:`TraceStats` for a merged trace, in one pass."""
    n = trace.meta.n_threads
    events = trace.events
    s = TraceStats(n_threads=n, n_events=len(events))
    if not events:
        return s
    s.duration = events[-1].time - events[0].time

    sizes: List[int] = []
    barriers = set()
    # Per-thread compute time: the sum of inter-event gaps, less the
    # wait before each barrier exit.  ``compute`` starts at int 0 like
    # ``sum`` does, so a thread with one event reports 0.
    compute: List[float] = [0] * n
    prev_time: List[Optional[float]] = [None] * n
    # Unpacking each event, and comparing kinds against locals, is
    # cheaper than reading fields and enum members by name.
    read, write = EventKind.REMOTE_READ, EventKind.REMOTE_WRITE
    enter, exit_ = EventKind.BARRIER_ENTER, EventKind.BARRIER_EXIT
    for time, thread, kind, barrier_id, _, nbytes, _, _ in events:
        if not 0 <= thread < n:
            raise ValueError(f"event thread {thread} out of range 0..{n - 1}")
        prev = prev_time[thread]
        if prev is not None:
            compute[thread] += 0.0 if kind == exit_ else time - prev
        prev_time[thread] = time
        if kind == read:
            s.n_remote_reads += 1
            sizes.append(nbytes)
        elif kind == write:
            s.n_remote_writes += 1
            sizes.append(nbytes)
        elif kind == enter:
            barriers.add(barrier_id)
    s.n_barriers = len(barriers)
    s.remote_bytes_total = sum(sizes)
    s.remote_bytes_min = min(sizes) if sizes else 0
    s.remote_bytes_max = max(sizes) if sizes else 0
    s.compute_time_per_thread = compute
    return s
