"""The trace translation algorithm (paper §3.2).

Translation converts the merged trace of an n-thread, 1-processor run
into n per-thread traces whose timestamps reflect an *ideal* n-processor
execution:

* for non-synchronisation events, the time between two consecutive events
  of a thread is preserved: if event e1 (orig t1, translated t1') precedes
  e2 (orig t2), then e2 translates to ``t2 - t1 + t1'``;
* each thread's first event rebases to time 0 (all threads start
  together on their own processors);
* a BARRIER_EXIT translates to the translated BARRIER_ENTER time of the
  *last* thread into that barrier — barriers are instantaneous, threads
  leave the moment the last one arrives;
* remote accesses keep their position but cost nothing (they are
  timestamps, not durations).

The resulting traces assume instant remote access, instant barriers, and
unperturbed computation; the trace-driven simulation then reintroduces
the target environment's costs for exactly those factors.

Translation can also *compensate* for measurement intrusion: if the
tracing runtime charged a known per-event recording overhead, passing it
as ``event_overhead`` subtracts it from every inter-event gap (clamped at
zero), as the paper notes the algorithm is easily modified to do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import ThreadTrace, Trace, TraceMeta
from repro.trace.validate import validate_trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.actions import Action


@dataclass
class TranslatedProgram:
    """Output of translation: ideal-parallel per-thread traces.

    Attributes
    ----------
    meta:
        Metadata of the source trace (measured environment E1).
    threads:
        One :class:`ThreadTrace` per thread, timestamps rebased.
    barrier_entry_times:
        ``barrier_id -> [translated entry time per thread]``.
    barrier_exit_times:
        ``barrier_id -> translated exit time`` (max of the entries).
    """

    meta: TraceMeta
    threads: List[ThreadTrace]
    barrier_entry_times: Dict[int, List[float]] = field(default_factory=dict)
    barrier_exit_times: Dict[int, float] = field(default_factory=dict)
    _actions: Optional[List[List["Action"]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def thread_actions(self) -> List[List["Action"]]:
        """Per-thread replay action lists, built on first use.

        Every simulation of this program (sweep points, serve misses,
        sampled representatives reusing a prepared trace) shares these
        lists; the replay only iterates them, so nothing may mutate
        them.
        """
        if self._actions is None:
            # Imported here: repro.sim imports this module.
            from repro.sim.actions import actions_from_thread_trace

            self._actions = [actions_from_thread_trace(tt) for tt in self.threads]
        return self._actions

    def ideal_execution_time(self) -> float:
        """Execution time under zero communication/synchronisation cost.

        This is the prediction for the paper's "ideal execution
        environment" (used in the Figure 5 comparison): the time of an
        n-processor run whose only cost is computation.
        """
        return max((tt.end_time for tt in self.threads), default=0.0)

    def total_compute_time(self) -> float:
        """Sum over threads of pure computation time."""
        return sum(sum(tt.compute_deltas()) for tt in self.threads)

    def barrier_imbalance(self, barrier_id: int) -> float:
        """Spread between first and last arrival at a barrier."""
        entries = self.barrier_entry_times[barrier_id]
        return max(entries) - min(entries)


def translate(
    trace: Trace,
    *,
    event_overhead: float = 0.0,
    flush_every: int = 0,
    flush_overhead: float = 0.0,
) -> TranslatedProgram:
    """Translate a merged 1-processor trace into ideal per-thread traces.

    The trace's structural invariants are checked first
    (:func:`~repro.trace.validate.validate_trace`).

    Parameters
    ----------
    trace:
        Merged trace from :class:`repro.pcxx.TracingRuntime`.
    event_overhead:
        Per-event instrumentation overhead to subtract from every
        inter-event gap (compensation for measurement intrusion).
    flush_every / flush_overhead:
        Event-buffer flush compensation: if the tracing runtime flushed
        its buffer (costing ``flush_overhead``) after every
        ``flush_every`` recorded events, the flush time sits inside the
        *recording thread's* next inter-event gap — the merged event
        order pinpoints exactly which gap, so it can be subtracted.
        (Flushes right before a barrier-exit are absorbed by exit-time
        snapping and need no correction.)
    """
    if event_overhead < 0:
        raise ValueError(f"negative event overhead {event_overhead}")
    if flush_every < 0 or flush_overhead < 0:
        raise ValueError("flush parameters must be >= 0")
    validate_trace(trace)

    n = trace.meta.n_threads
    per_thread = trace.split_by_thread()

    # Event-buffer flush compensation: replay the merged recording order
    # to find which (thread, per-thread event index) gap absorbed each
    # flush; deductions[t][i] is subtracted from thread t's gap *before*
    # its i-th event.
    deductions: List[Dict[int, float]] = [dict() for _ in range(n)]
    if flush_every and flush_overhead:
        seen_per_thread = [0] * n
        for global_index, ev in enumerate(trace.events, start=1):
            seen_per_thread[ev.thread] += 1
            if global_index % flush_every == 0:
                # The flush lands in the recording thread's next gap
                # (per-thread index == events seen so far).
                nxt = seen_per_thread[ev.thread]
                d = deductions[ev.thread]
                d[nxt] = d.get(nxt, 0.0) + flush_overhead

    # Pass 1: translate everything except barrier exits, thread by thread.
    # A thread's translated time after a barrier depends on the barrier's
    # exit time, which depends on *all* threads' entry times — but entry
    # times for barrier k depend only on exits of barriers < k, and every
    # thread meets barriers in the same global order, so we can resolve
    # barriers lazily: walk all threads, parking them at each barrier
    # entry, and release a barrier when its last entry is known.
    out_events: List[List[TraceEvent]] = [[] for _ in range(n)]
    entry_by_thread: Dict[int, Dict[int, float]] = {}  # bid -> {thread: t'}
    barrier_exit_times: Dict[int, float] = {}

    # Per-thread cursors.
    positions = [0] * n
    orig_prev = [0.0] * n  # original timestamp of previous event
    trans_prev = [0.0] * n  # translated timestamp of previous event

    # Enum members as locals: on CPython 3.11 each ``SomeEnum.MEMBER``
    # read costs ~0.1 us, and advance_thread reads them per event.
    ENTER, EXIT = EventKind.BARRIER_ENTER, EventKind.BARRIER_EXIT
    new_event = tuple.__new__

    def advance_thread(t: int) -> int | None:
        """Translate thread t's events until it blocks on a barrier.

        Returns the barrier id it is now waiting in, or None if the
        thread ran to completion.
        """
        events = per_thread[t].events
        append = out_events[t].append
        deduct = deductions[t]
        orig, trans = orig_prev[t], trans_prev[t]
        i = positions[t]
        while i < len(events):
            # Unpacked once: a NamedTuple field read by name costs
            # several times a local read on CPython 3.11.
            time, th, kind, bid, owner, nbytes, coll, tag = events[i]
            if kind == EXIT:
                if bid not in barrier_exit_times:
                    # Cannot resolve yet; stay parked (should not happen:
                    # we only resume after the exit time is known).
                    break
                t_new = barrier_exit_times[bid]
            elif i == 0:
                t_new = 0.0  # a validated thread starts with THREAD_BEGIN
            else:
                gap = time - orig
                gap -= event_overhead + deduct.get(i, 0.0)
                t_new = trans + (gap if gap > 0.0 else 0.0)  # max(0.0, gap)
            append(
                new_event(
                    TraceEvent, (t_new, th, kind, bid, owner, nbytes, coll, tag)
                )
            )
            orig, trans = time, t_new
            i += 1
            if kind == ENTER:
                entry_by_thread.setdefault(bid, {})[t] = t_new
                break
        else:
            bid = None
        positions[t] = i
        orig_prev[t], trans_prev[t] = orig, trans
        return bid

    waiting: Dict[int, List[int]] = {}  # barrier id -> threads parked in it
    runnable = list(range(n))
    done = 0
    while runnable:
        t = runnable.pop(0)
        bid = advance_thread(t)
        if bid is None:
            done += 1
            continue
        waiting.setdefault(bid, []).append(t)
        entries = entry_by_thread.get(bid, {})
        if len(entries) == n:
            barrier_exit_times[bid] = max(entries.values())
            runnable.extend(sorted(waiting.pop(bid)))
    if done != n:
        parked = {b: ts for b, ts in waiting.items() if ts}
        raise ValueError(
            f"translation deadlock: only {done}/{n} threads finished; "
            f"threads parked at barriers {parked} — barrier participation "
            "is not global (trace validation should have caught this)"
        )

    threads = [ThreadTrace(t, evs) for t, evs in enumerate(out_events)]
    barrier_entry_times = {
        bid: [d[t] for t in sorted(d)] for bid, d in entry_by_thread.items()
    }
    return TranslatedProgram(
        meta=trace.meta,
        threads=threads,
        barrier_entry_times=barrier_entry_times,
        barrier_exit_times=barrier_exit_times,
    )
