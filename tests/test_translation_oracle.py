"""The translation-output contract over generated traces.

``docs/ARCHITECTURE.md`` ("Translation output") promises that each
translated thread (a) starts at t = 0, (b) leaves every barrier at the
latest translated entry of its episode, and (c) keeps every other gap
as measured, less its compensations, floored at 0.  This file checks
those three rules on generated merged traces, and holds ``translate``,
``actions_from_thread_trace`` and ``compute_stats`` equal to the small
reference versions below, written for reading rather than speed.

Every timestamp, overhead and gap is a multiple of 1/4 well inside a
double's exact range, so the rules hold exactly, not approximately.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.translation import translate
from repro.sim.actions import Action, ActionKind, actions_from_thread_trace
from repro.trace.events import EventKind, TraceEvent
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.trace import Trace, TraceMeta

E = EventKind

#: zero and non-zero gaps, all exact in binary
quarters = st.integers(0, 40).map(lambda q: q / 4)


@st.composite
def measured_traces(draw):
    """A valid merged 1-processor trace of 1-8 threads.

    Threads start, run through global barrier episodes (ids in any
    order) and end; between barriers each does remote reads and writes
    to other owners and marks.  Events of one segment interleave in any
    order, and the merged clock advances by a drawn gap per event.
    """
    n = draw(st.integers(1, 8))
    episodes = draw(
        st.lists(st.integers(0, 50), unique=True, min_size=0, max_size=4)
    )
    clock = 0.0
    events = []

    def body(th):
        out = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from([E.REMOTE_READ, E.REMOTE_WRITE, E.MARK]))
            if kind == E.MARK:
                out.append(dict(kind=kind, tag=draw(st.sampled_from(["", "p"]))))
            elif n > 1:
                owner = draw(st.integers(0, n - 2))
                out.append(
                    dict(
                        kind=kind,
                        owner=owner + (owner >= th),
                        nbytes=draw(st.integers(1, 256)),
                        collection=draw(st.sampled_from(["grid", "aux"])),
                    )
                )
        return out

    segments = []
    for seg in range(len(episodes) + 1):
        per_thread = {}
        for th in range(n):
            head = (
                [dict(kind=E.THREAD_BEGIN)]
                if seg == 0
                else [dict(kind=E.BARRIER_EXIT, barrier_id=episodes[seg - 1])]
            )
            tail = (
                [dict(kind=E.BARRIER_ENTER, barrier_id=episodes[seg])]
                if seg < len(episodes)
                else [dict(kind=E.THREAD_END)]
            )
            per_thread[th] = head + body(th) + tail
        segments.append(per_thread)
    for per_thread in segments:
        while per_thread:
            th = draw(st.sampled_from(sorted(per_thread)))
            fields = per_thread[th].pop(0)
            if not per_thread[th]:
                del per_thread[th]
            clock += draw(quarters)
            events.append(TraceEvent(clock, th, **fields))
    return Trace(TraceMeta(program="generated", n_threads=n), events)


compensations = st.tuples(
    st.integers(0, 8).map(lambda q: q / 4),  # event_overhead
    st.integers(0, 7),  # flush_every
    st.integers(0, 12).map(lambda q: q / 4),  # flush_overhead
)


# -- reference versions ---------------------------------------------------


def flush_deductions(trace, flush_every, flush_overhead):
    """``(thread, per-thread index) -> time`` the buffer flushes took.

    The flush after every ``flush_every``-th merged event lands in the
    gap before the recording thread's next event.
    """
    deductions = {}
    seen = [0] * trace.meta.n_threads
    for k, ev in enumerate(trace.events, start=1):
        seen[ev.thread] += 1
        if flush_every and flush_overhead and k % flush_every == 0:
            key = (ev.thread, seen[ev.thread])
            deductions[key] = deductions.get(key, 0.0) + flush_overhead
    return deductions


def reference_translate(trace, event_overhead, flush_every, flush_overhead):
    """``(per-thread events, entry times, exit times)``, one episode at a time.

    Every thread runs up to its next barrier entry; the episode's exit
    is the latest of those entries, and each thread resumes from it.
    """
    n = trace.meta.n_threads
    measured = [[ev for ev in trace.events if ev.thread == t] for t in range(n)]
    deductions = flush_deductions(trace, flush_every, flush_overhead)
    out = [[] for _ in range(n)]
    entry_times, exit_times = {}, {}
    exit_time = None
    while any(len(out[t]) < len(measured[t]) for t in range(n)):
        entries = {}
        for t in range(n):
            while len(out[t]) < len(measured[t]):
                i = len(out[t])
                ev = measured[t][i]
                if i == 0:
                    new = 0.0
                elif ev.kind == E.BARRIER_EXIT:
                    new = exit_time
                else:
                    gap = ev.time - measured[t][i - 1].time
                    gap -= event_overhead + deductions.get((t, i), 0.0)
                    new = out[t][-1].time + max(0.0, gap)
                out[t].append(ev._replace(time=new))
                if ev.kind == E.BARRIER_ENTER:
                    entries[ev.barrier_id, t] = new
                    break
        if entries:
            (bid,) = {b for b, _ in entries}
            entry_times[bid] = [entries[bid, t] for t in range(n)]
            exit_time = exit_times[bid] = max(entry_times[bid])
    return out, entry_times, exit_times


def reference_actions(events):
    """The replay actions of one translated thread."""
    actions = []
    for i, ev in enumerate(events):
        gap = ev.time - events[i - 1].time if i else 0.0
        if gap > 0 and ev.kind != E.BARRIER_EXIT:
            actions.append(Action(ActionKind.COMPUTE, duration=gap))
        if ev.kind == E.THREAD_END:
            actions.append(Action(ActionKind.END))
        elif ev.kind == E.REMOTE_READ:
            actions.append(
                Action(ActionKind.REMOTE_READ, owner=ev.owner, nbytes=ev.nbytes,
                       label=ev.collection)
            )
        elif ev.kind == E.REMOTE_WRITE:
            actions.append(
                Action(ActionKind.REMOTE_WRITE, owner=ev.owner, nbytes=ev.nbytes,
                       label=ev.collection)
            )
        elif ev.kind == E.BARRIER_ENTER:
            actions.append(Action(ActionKind.BARRIER, barrier_id=ev.barrier_id))
        elif ev.kind == E.MARK:
            actions.append(Action(ActionKind.MARK, label=ev.tag))
    return actions


def reference_stats(trace):
    n = trace.meta.n_threads
    events = trace.events
    remote = [ev for ev in events if ev.kind in (E.REMOTE_READ, E.REMOTE_WRITE)]
    sizes = [ev.nbytes for ev in remote]
    compute = []
    for t in range(n):
        mine = [ev for ev in events if ev.thread == t]
        compute.append(
            sum(
                0.0 if ev.kind == E.BARRIER_EXIT else ev.time - prev.time
                for prev, ev in zip(mine, mine[1:])
            )
        )
    return TraceStats(
        n_threads=n,
        n_events=len(events),
        n_barriers=len({ev.barrier_id for ev in events if ev.kind == E.BARRIER_ENTER}),
        n_remote_reads=sum(ev.kind == E.REMOTE_READ for ev in events),
        n_remote_writes=sum(ev.kind == E.REMOTE_WRITE for ev in events),
        remote_bytes_total=sum(sizes),
        remote_bytes_min=min(sizes, default=0),
        remote_bytes_max=max(sizes, default=0),
        duration=events[-1].time - events[0].time if events else 0.0,
        compute_time_per_thread=compute if events else [],
    )


# -- the contract ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(trace=measured_traces(), comp=compensations)
def test_translation_output_contract(trace, comp):
    event_overhead, flush_every, flush_overhead = comp
    tp = translate(
        trace,
        event_overhead=event_overhead,
        flush_every=flush_every,
        flush_overhead=flush_overhead,
    )
    deductions = flush_deductions(trace, flush_every, flush_overhead)
    entries = {}
    for t, (orig, trans) in enumerate(zip(trace.split_by_thread(), tp.threads)):
        assert trans.thread == t
        assert [ev._replace(time=0.0) for ev in trans.events] == [
            ev._replace(time=0.0) for ev in orig.events
        ]
        # (a) every thread starts at t = 0
        assert trans.events[0].time == 0.0
        for i in range(1, len(trans.events)):
            ev = trans.events[i]
            if ev.kind == E.BARRIER_ENTER:
                entries.setdefault(ev.barrier_id, []).append(ev.time)
            if ev.kind == E.BARRIER_EXIT:
                continue
            # (c) every other gap is the measured one less compensations
            measured = orig.events[i].time - orig.events[i - 1].time
            compensation = event_overhead + deductions.get((t, i), 0.0)
            assert ev.time - trans.events[i - 1].time == max(
                0.0, measured - compensation
            )
    # (b) every exit is the latest translated entry of its episode
    for trans in tp.threads:
        for ev in trans.events:
            if ev.kind == E.BARRIER_EXIT:
                assert ev.time == max(entries[ev.barrier_id])
                assert ev.time == tp.barrier_exit_times[ev.barrier_id]

    events, entry_times, exit_times = reference_translate(trace, *comp)
    assert [tt.events for tt in tp.threads] == events
    assert tp.barrier_entry_times == entry_times
    assert tp.barrier_exit_times == exit_times


@settings(max_examples=150, deadline=None)
@given(trace=measured_traces(), comp=compensations)
def test_actions_and_stats_match_reference(trace, comp):
    tp = translate(
        trace, event_overhead=comp[0], flush_every=comp[1], flush_overhead=comp[2]
    )
    for tt in tp.threads:
        assert actions_from_thread_trace(tt) == reference_actions(tt.events)
    assert compute_stats(trace) == reference_stats(trace)
    merged = Trace.from_thread_traces(trace.meta, tp.threads)
    assert compute_stats(merged) == reference_stats(merged)
