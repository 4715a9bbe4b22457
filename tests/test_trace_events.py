"""Trace event records and their serialisation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.events import EventKind, TraceEvent


def test_kinds_are_stable():
    # Serialised traces depend on these integer values staying put.
    assert int(EventKind.THREAD_BEGIN) == 0
    assert int(EventKind.THREAD_END) == 1
    assert int(EventKind.BARRIER_ENTER) == 2
    assert int(EventKind.BARRIER_EXIT) == 3
    assert int(EventKind.REMOTE_READ) == 4
    assert int(EventKind.REMOTE_WRITE) == 5
    assert int(EventKind.MARK) == 6


def test_dict_roundtrip_defaults_elided():
    ev = TraceEvent(1.0, 0, EventKind.THREAD_BEGIN)
    d = ev.to_dict()
    assert set(d) == {"t", "th", "k"}
    assert TraceEvent.from_dict(d) == ev


event_strategy = st.builds(
    TraceEvent,
    time=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    thread=st.integers(0, 63),
    kind=st.sampled_from(list(EventKind)),
    barrier_id=st.integers(-1, 1000),
    owner=st.integers(-1, 63),
    nbytes=st.integers(0, 1 << 30),
    collection=st.text(max_size=12),
    tag=st.text(max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(event_strategy)
def test_dict_roundtrip_property(ev):
    assert TraceEvent.from_dict(ev.to_dict()) == ev
