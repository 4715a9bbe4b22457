"""Merging per-thread traces and per-thread statistics."""

import pytest

from repro.core import presets
from repro.core.pipeline import measure_and_extrapolate
from repro.pcxx import Collection, make_distribution
from repro.trace.trace import Trace, TraceMeta
from repro.trace.validate import validate_trace


def outcome(n=4):
    def program(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            yield from ctx.compute_us(100.0)
            if n > 1:
                yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
            yield from ctx.barrier()

        return body

    return measure_and_extrapolate(program, n, presets.cm5(), name="m")


def test_split_merge_roundtrip():
    o = outcome()
    trace = o.trace
    merged = Trace.from_thread_traces(trace.meta, trace.split_by_thread())
    # Same multiset of events; order may legally differ at equal times.
    assert sorted(merged.events, key=repr) == sorted(trace.events, key=repr)
    validate_trace(merged)


def test_merge_extrapolated_traces_validates():
    o = outcome()
    merged = Trace.from_thread_traces(
        TraceMeta(n_threads=4, program="m"), o.result.threads
    )
    validate_trace(merged)
    assert merged.duration == pytest.approx(o.predicted_time, abs=1e-6)


def test_merge_thread_count_mismatch():
    o = outcome()
    with pytest.raises(ValueError, match="threads"):
        Trace.from_thread_traces(TraceMeta(n_threads=7), o.result.threads)


