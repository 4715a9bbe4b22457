"""Trace statistics (the §4.1 diagnosis numbers)."""

from repro.trace.events import EventKind, TraceEvent
from repro.trace.stats import compute_stats
from repro.trace.trace import Trace, TraceMeta

E = EventKind


def test_stats_counts():
    tr = Trace(
        TraceMeta(program="s", n_threads=2),
        [
            TraceEvent(0.0, 0, E.THREAD_BEGIN),
            TraceEvent(0.0, 1, E.THREAD_BEGIN),
            TraceEvent(5.0, 0, E.REMOTE_READ, owner=1, nbytes=2, collection="grid"),
            TraceEvent(6.0, 0, E.REMOTE_READ, owner=1, nbytes=128, collection="grid"),
            TraceEvent(7.0, 1, E.REMOTE_WRITE, owner=0, nbytes=64, collection="aux"),
            TraceEvent(8.0, 0, E.BARRIER_ENTER, barrier_id=0),
            TraceEvent(9.0, 1, E.BARRIER_ENTER, barrier_id=0),
            TraceEvent(9.0, 0, E.BARRIER_EXIT, barrier_id=0),
            TraceEvent(9.0, 1, E.BARRIER_EXIT, barrier_id=0),
            TraceEvent(10.0, 0, E.THREAD_END),
            TraceEvent(10.0, 1, E.THREAD_END),
        ],
    )
    st = compute_stats(tr)
    assert st.n_threads == 2
    assert st.n_events == 11
    assert st.n_barriers == 1
    assert st.n_remote_reads == 2
    assert st.n_remote_writes == 1
    assert st.remote_bytes_total == 194
    assert st.remote_bytes_min == 2
    assert st.remote_bytes_max == 128
    assert "1 barriers" in st.summary()


def test_compute_time_excludes_barrier_wait():
    tr = Trace(
        TraceMeta(program="s", n_threads=1),
        [
            TraceEvent(0.0, 0, E.THREAD_BEGIN),
            TraceEvent(10.0, 0, E.BARRIER_ENTER, barrier_id=0),
            TraceEvent(90.0, 0, E.BARRIER_EXIT, barrier_id=0),
            TraceEvent(95.0, 0, E.THREAD_END),
        ],
    )
    st = compute_stats(tr)
    assert st.compute_time_per_thread == [15.0]
    assert st.total_compute_time == 15.0


def test_empty_trace():
    st = compute_stats(Trace(TraceMeta(n_threads=3)))
    assert st.n_events == 0
