"""Every way a trace is built gives one fixed once built.

A :class:`~repro.trace.trace.Trace` is known by its digest alone, so
each builder must hand back a trace whose events are a tuple no call
can change, and whose digest is :func:`digest_events` of what it holds.
Meta stays editable, and an edit rehashes.
"""

import operator

import pytest

from repro.bench.suite import get_benchmark
from repro.core.pipeline import measure
from repro.sampling import SamplingConfig, representative_trace
from repro.sampling.intervals import split_trace
from repro.serve.service import ExtrapService
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import read_trace, write_trace
from repro.trace.trace import Trace, digest_events


@pytest.fixture(scope="module")
def measured():
    return measure(get_benchmark("grid").make_program()(4), 4, name="grid")


def _read(suffix):
    def build(measured, tmp_path):
        return read_trace(write_trace(measured, tmp_path / f"t{suffix}"))

    return build


def _merged(measured, tmp_path):
    return Trace.from_thread_traces(measured.meta, measured.split_by_thread())


def _inline(measured, tmp_path):
    return ExtrapService._trace_from_inline(
        {
            "meta": dict(measured.meta.to_dict()),
            "events": [dict(ev.to_dict()) for ev in measured.events],
        }
    )


def _representative(measured, tmp_path):
    split = split_trace(measured, SamplingConfig(mode="barrier"))
    return representative_trace(measured.meta, split.intervals[1])


BUILDERS = {
    "measure": lambda measured, tmp_path: measured,
    "jsonl": _read(".jsonl"),
    "jsonl.gz": _read(".jsonl.gz"),
    "bin": _read(".bin"),
    "bin.gz": _read(".bin.gz"),
    "from_thread_traces": _merged,
    "serve-inline": _inline,
    "representative_trace": _representative,
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_built_trace_is_fixed_and_known_by_its_digest(build, measured, tmp_path):
    trace = build(measured, tmp_path)
    events = trace.events
    assert type(events) is tuple and len(events) > 2
    digest = trace.digest()
    assert digest == digest_events(trace.meta, events)

    late = TraceEvent(events[-1].time, 0, EventKind.MARK, tag="late")
    with pytest.raises(TypeError):
        operator.setitem(trace.events, 0, late)
    with pytest.raises(AttributeError):
        trace.events.append(late)
    with pytest.raises(AttributeError):
        trace.append(late)
    with pytest.raises(AttributeError):
        trace.events = events[:-1]
    assert trace.events is events
    assert trace.digest() == digest

    trace.meta.problem["edited"] = True
    edited = trace.digest()
    assert edited == digest_events(trace.meta, events) != digest
    del trace.meta.problem["edited"]
    assert trace.digest() == digest

