"""The end-to-end extrapolation pipeline."""

import pytest

from repro.core import presets
from repro.core.pipeline import (
    ExtrapolationOutcome,
    extrapolate,
    measure,
    measure_and_extrapolate,
)
from repro.pcxx import Collection, make_distribution
from repro.trace.validate import validate_trace


def program(rt):
    n = rt.n_threads
    coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=128)
    for i in range(n):
        coll.poke(i, i)

    def body(ctx):
        yield from ctx.compute(1136)  # 1000us on the default trace machine
        if n > 1:
            yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=16)
        yield from ctx.barrier()

    return body


def test_measure_produces_valid_trace():
    trace = measure(program, 4, name="demo", problem={"k": 3})
    validate_trace(trace)
    assert trace.meta.program == "demo"
    assert trace.meta.n_threads == 4
    assert trace.meta.problem == {"k": 3}


def test_measure_respects_trace_mflops():
    t1 = measure(program, 1, trace_mflops=1.136)
    t2 = measure(program, 1, trace_mflops=2.272)
    assert t2.duration == pytest.approx(t1.duration / 2)


def test_extrapolate_outcome_fields():
    trace = measure(program, 4, name="demo")
    out = extrapolate(trace, presets.distributed_memory())
    assert isinstance(out, ExtrapolationOutcome)
    assert out.trace is trace
    assert out.trace_stats.n_threads == 4
    assert out.translated.n_threads == 4
    assert out.predicted_time >= out.ideal_time
    assert out.result.execution_time == out.predicted_time


def test_measure_and_extrapolate_equivalent():
    out1 = measure_and_extrapolate(program, 4, presets.cm5(), name="demo")
    trace = measure(program, 4, name="demo")
    out2 = extrapolate(trace, presets.cm5())
    assert out1.predicted_time == pytest.approx(out2.predicted_time)


def test_deterministic_across_runs():
    a = measure_and_extrapolate(program, 8, presets.distributed_memory())
    b = measure_and_extrapolate(program, 8, presets.distributed_memory())
    assert a.predicted_time == b.predicted_time
    assert a.trace.events == b.trace.events


def test_same_trace_many_environments():
    """The extrapolation promise: one measurement, many predictions."""
    trace = measure(program, 8, name="demo")
    times = {
        name: extrapolate(trace, presets.by_name(name)).predicted_time
        for name in ("ideal", "cm5", "shared_memory", "distributed_memory")
    }
    assert times["ideal"] <= times["shared_memory"] <= times["distributed_memory"]
    # CM-5 has a 2.4x faster CPU than the trace machine; with this mostly
    # compute-bound program it beats the MipsRatio=1.0 environments.
    assert times["cm5"] < times["distributed_memory"]

