"""Structural validation of traces.

The translation algorithm and the simulator both assume well-formed
traces: monotone per-thread timestamps, begin/end delimiters, matched
barrier entry/exit pairs, and every thread participating in every global
barrier.  Validation failures point at instrumentation bugs (or corrupted
trace files) early, with a precise message.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

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

    # Per-thread state, indexed by thread id once it is known in range.
    last_time: List[Optional[float]] = [None] * n
    NEW, RUNNING, ENDED = 0, 1, 2
    state = [NEW] * n
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
        # Unpacked once: a NamedTuple field read by name costs several
        # times a local read on CPython 3.11.
        time, th, kind, bid, owner, nbytes, _, _ = ev
        if not 0 <= th < n:
            raise _error(i, ev, f"thread id out of range 0..{n - 1}")
        last = last_time[th]
        if last is not None and time < last:
            raise _error(
                i, ev,
                f"time goes backwards for thread {th} "
                f"({last} -> {time})",
            )
        last_time[th] = time

        st = state[th]
        if st == ENDED:
            raise _error(i, ev, "event after THREAD_END")
        if kind == BEGIN:
            if st == RUNNING:
                raise _error(i, ev, "duplicate THREAD_BEGIN")
            state[th] = RUNNING
            continue
        if st == NEW:
            raise _error(i, ev, "event before THREAD_BEGIN")

        if kind == END:
            if th in open_barrier:
                raise _error(
                    i, ev, f"thread ends inside barrier {open_barrier[th]}"
                )
            state[th] = ENDED
        elif kind == ENTER:
            if th in open_barrier:
                raise _error(
                    i, ev, f"nested barrier (already in {open_barrier[th]})"
                )
            if bid < 0:
                raise _error(i, ev, "barrier id missing")
            entries = barrier_entries.setdefault(bid, set())
            if th in entries:
                raise _error(i, ev, f"thread enters barrier {bid} twice")
            entries.add(th)
            open_barrier[th] = bid
        elif kind == EXIT:
            if open_barrier.get(th) != bid:
                raise _error(
                    i, ev,
                    f"exit from barrier {bid} the thread "
                    f"is not in (open: {open_barrier.get(th)})",
                )
            del open_barrier[th]
        elif kind in REMOTE:
            if not 0 <= owner < n:
                raise _error(i, ev, f"owner {owner} out of range")
            if owner == th:
                raise _error(i, ev, "remote access to the thread's own element")
            if nbytes <= 0:
                raise _error(i, ev, f"non-positive size {nbytes}")

    missing_begin = [t for t in range(n) if state[t] == NEW]
    if missing_begin:
        raise TraceValidationError(f"threads missing THREAD_BEGIN: {missing_begin}")
    missing_end = [t for t in range(n) if state[t] != ENDED]
    if missing_end:
        raise TraceValidationError(f"threads missing THREAD_END: {missing_end}")
    if open_barrier:
        raise TraceValidationError(f"unclosed barriers at end of trace: {open_barrier}")

    if require_global_barriers:
        for bid, entries in barrier_entries.items():
            if entries != set(range(n)):
                raise TraceValidationError(
                    f"barrier {bid} entered by {sorted(entries)}, "
                    f"expected all {n} threads"
                )
