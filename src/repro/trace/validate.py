"""Structural validation of traces.

The translation algorithm and the simulator both assume well-formed
traces: monotone per-thread timestamps, begin/end delimiters, matched
barrier entry/exit pairs, and every thread participating in every global
barrier.  Validation failures point at instrumentation bugs (or corrupted
trace files) early, with a precise message.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace


class TraceValidationError(ValueError):
    """A trace violates a structural invariant."""


def _error(i: int, ev: TraceEvent, problem: str) -> TraceValidationError:
    """The error for event ``i`` (its description is built only on failure)."""
    return TraceValidationError(
        f"event #{i} ({ev.kind.name} @ {ev.time} thread {ev.thread}): {problem}"
    )


def validate_trace(trace: Trace, *, require_global_barriers: bool = True) -> None:
    """Check structural invariants; raise :class:`TraceValidationError`.

    Invariants:

    1. every event's thread id is in range;
    2. per-thread timestamps are non-decreasing;
    3. each thread's first event is THREAD_BEGIN and last is THREAD_END,
       with no others in between;
    4. per thread, BARRIER_ENTER / BARRIER_EXIT strictly alternate and
       carry matching ids;
    5. (if ``require_global_barriers``) every barrier id is entered by
       every thread exactly once — pC++ barriers are global;
    6. remote events carry a valid owner != requesting thread and a
       positive size.
    """
    n = trace.meta.n_threads
    if n <= 0:
        raise TraceValidationError(f"trace metadata has n_threads={n}")

    last_time: Dict[int, float] = {}
    begun: Set[int] = set()
    ended: Set[int] = set()
    open_barrier: Dict[int, int] = {}  # thread -> barrier id it is inside
    barrier_entries: Dict[int, Set[int]] = {}  # barrier id -> set of threads

    # Enum members as locals: on CPython 3.11 each ``SomeEnum.MEMBER``
    # read costs ~0.1 us, and the loop below reads them per event.
    BEGIN, END, ENTER, EXIT = (
        EventKind.THREAD_BEGIN, EventKind.THREAD_END,
        EventKind.BARRIER_ENTER, EventKind.BARRIER_EXIT,
    )
    REMOTE = (EventKind.REMOTE_READ, EventKind.REMOTE_WRITE)
    for i, ev in enumerate(trace.events):
        if not 0 <= ev.thread < n:
            raise _error(i, ev, f"thread id out of range 0..{n - 1}")
        if ev.thread in last_time and ev.time < last_time[ev.thread]:
            raise _error(
                i, ev,
                f"time goes backwards for thread {ev.thread} "
                f"({last_time[ev.thread]} -> {ev.time})",
            )
        last_time[ev.thread] = ev.time

        if ev.thread in ended:
            raise _error(i, ev, "event after THREAD_END")

        if ev.kind == BEGIN:
            if ev.thread in begun:
                raise _error(i, ev, "duplicate THREAD_BEGIN")
            begun.add(ev.thread)
            continue
        if ev.thread not in begun:
            raise _error(i, ev, "event before THREAD_BEGIN")

        if ev.kind == END:
            if ev.thread in open_barrier:
                raise _error(
                    i, ev, f"thread ends inside barrier {open_barrier[ev.thread]}"
                )
            ended.add(ev.thread)
        elif ev.kind == ENTER:
            if ev.thread in open_barrier:
                raise _error(
                    i, ev, f"nested barrier (already in {open_barrier[ev.thread]})"
                )
            if ev.barrier_id < 0:
                raise _error(i, ev, "barrier id missing")
            entries = barrier_entries.setdefault(ev.barrier_id, set())
            if ev.thread in entries:
                raise _error(i, ev, f"thread enters barrier {ev.barrier_id} twice")
            entries.add(ev.thread)
            open_barrier[ev.thread] = ev.barrier_id
        elif ev.kind == EXIT:
            if open_barrier.get(ev.thread) != ev.barrier_id:
                raise _error(
                    i, ev,
                    f"exit from barrier {ev.barrier_id} the thread "
                    f"is not in (open: {open_barrier.get(ev.thread)})",
                )
            del open_barrier[ev.thread]
        elif ev.kind in REMOTE:
            if not 0 <= ev.owner < n:
                raise _error(i, ev, f"owner {ev.owner} out of range")
            if ev.owner == ev.thread:
                raise _error(i, ev, "remote access to the thread's own element")
            if ev.nbytes <= 0:
                raise _error(i, ev, f"non-positive size {ev.nbytes}")

    missing_begin = set(range(n)) - begun
    if missing_begin:
        raise TraceValidationError(f"threads missing THREAD_BEGIN: {sorted(missing_begin)}")
    missing_end = set(range(n)) - ended
    if missing_end:
        raise TraceValidationError(f"threads missing THREAD_END: {sorted(missing_end)}")
    if open_barrier:
        raise TraceValidationError(f"unclosed barriers at end of trace: {open_barrier}")

    if require_global_barriers:
        for bid, entries in barrier_entries.items():
            if entries != set(range(n)):
                raise TraceValidationError(
                    f"barrier {bid} entered by {sorted(entries)}, "
                    f"expected all {n} threads"
                )
