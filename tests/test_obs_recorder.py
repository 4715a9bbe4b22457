"""The timeline recorder, counter series and derived samplers."""

import math

import pytest

from repro.bench.suite import get_benchmark
from repro.core import presets
from repro.core.pipeline import extrapolate, measure
from repro.obs.recorder import CounterSeries, TimelineRecorder
from repro.obs.samplers import (
    busy_fraction_series,
    counter_points,
    utilization_series,
)


def test_span_instant_counter_roundtrip():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 5.0)
    rec.span(1, "service", 2.0, 3.0)
    rec.instant(0, "mark", 4.0, tag="phase1")
    rec.counter("net.in_flight", 0.0, 1)
    rec.counter("net.in_flight", 2.0, 2)
    tl = rec.finalize(n_procs=2, end_time=5.0, program="p", params_name="q")
    assert [s.category for s in tl.spans] == ["compute", "service"]
    assert tl.spans[0].duration == 5.0
    assert tl.instants[0].args_dict() == {"tag": "phase1"}
    assert tl.counters["net.in_flight"].samples == [(0.0, 1), (2.0, 2)]
    assert tl.program == "p" and tl.params_name == "q"


def test_zero_and_negative_spans_dropped():
    rec = TimelineRecorder()
    rec.span(0, "compute", 5.0, 5.0)
    rec.span(0, "compute", 5.0, 4.0)
    assert rec.spans == []


def test_counter_dedups_unchanged_values():
    series = CounterSeries("x")
    series.sample(0.0, 1)
    series.sample(1.0, 1)  # unchanged: dropped
    series.sample(2.0, 3)
    series.sample(3.0, 1)
    assert series.samples == [(0.0, 1), (2.0, 3), (3.0, 1)]


def test_finalize_sorts_spans_and_instants():
    rec = TimelineRecorder()
    rec.span(1, "compute", 1.0, 2.0)
    rec.span(0, "compute", 3.0, 4.0)
    rec.instant(1, "b", 2.0)
    rec.instant(0, "a", 1.0)
    tl = rec.finalize(n_procs=2, end_time=4.0)
    assert [(s.proc, s.t0) for s in tl.spans] == [(0, 3.0), (1, 1.0)]
    assert [i.name for i in tl.instants] == ["a", "b"]


def test_category_totals_per_proc_and_global():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 2.0)
    rec.span(1, "compute", 0.0, 3.0)
    rec.span(1, "service", 3.0, 4.0)
    tl = rec.finalize(n_procs=2, end_time=4.0)
    assert tl.category_totals() == {"compute": 5.0, "service": 1.0}
    assert tl.category_totals(1) == {"compute": 3.0, "service": 1.0}
    assert "timeline" in tl.summary()


def test_busy_fraction_series_simple():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 5.0)  # first half busy
    rec.span(0, "comm_wait", 5.0, 10.0)  # waits excluded by default
    tl = rec.finalize(n_procs=1, end_time=10.0)
    series = busy_fraction_series(tl, 0, n_buckets=2)
    assert [round(v, 6) for _, v in series] == [1.0, 0.0]
    with_waits = busy_fraction_series(tl, 0, n_buckets=2, include_waits=True)
    assert [round(v, 6) for _, v in with_waits] == [1.0, 1.0]


def test_counter_points_unknown_name():
    tl = TimelineRecorder().finalize(n_procs=1, end_time=1.0)
    with pytest.raises(KeyError, match="available"):
        counter_points(tl, "nope")


@pytest.fixture(scope="module")
def grid_outcome():
    info = get_benchmark("grid")
    trace = measure(info.make_program()(8), 8, name="grid")
    return extrapolate(trace, presets.distributed_memory(), observe=True)


def test_simulated_run_records_timeline(grid_outcome):
    tl = grid_outcome.result.timeline
    assert tl is not None
    assert tl.n_procs == 8
    assert tl.end_time == grid_outcome.result.execution_time
    assert tl.spans and tl.instants and tl.counters
    # Expected series exist.
    names = tl.counter_names()
    assert "net.in_flight" in names
    assert "barriers.released" in names
    assert any(n.startswith("proc0.rxq_depth") for n in names)
    assert any(n.startswith("proc0.busy_us") for n in names)


def test_busy_span_totals_match_processor_stats(grid_outcome):
    """Acceptance: per-category busy span totals == ProcessorStats."""
    res = grid_outcome.result
    tl = res.timeline
    for p in res.processors:
        totals = tl.category_totals(p.pid)
        for cat, expected in p.categories.items():
            got = totals.get(cat, 0.0)
            assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-6), (
                p.pid,
                cat,
                got,
                expected,
            )


def test_wait_spans_cover_episodes(grid_outcome):
    """Wait categories record wall episodes >= the stats' net wait."""
    res = grid_outcome.result
    tl = res.timeline
    for p in res.processors:
        totals = tl.category_totals(p.pid)
        assert totals.get("comm_wait", 0.0) >= p.comm_wait - 1e-6
        assert totals.get("barrier_wait", 0.0) >= p.barrier_wait - 1e-6


def test_observation_does_not_change_results(grid_outcome):
    info = get_benchmark("grid")
    trace = measure(info.make_program()(8), 8, name="grid")
    plain = extrapolate(trace, presets.distributed_memory())
    res = grid_outcome.result
    assert plain.result.execution_time == res.execution_time
    assert plain.result.network.messages == res.network.messages
    for a, b in zip(plain.result.processors, res.processors):
        assert a.categories == b.categories
        assert a.comm_wait == b.comm_wait
        assert a.barrier_wait == b.barrier_wait


def test_utilization_series_bounded(grid_outcome):
    series = utilization_series(grid_outcome.result.timeline, n_buckets=16)
    pts = series["utilization"]
    assert len(pts) == 16
    assert all(0.0 <= v <= 1.0 for _, v in pts)
    assert any(v > 0 for _, v in pts)


def test_observe_with_interrupt_policy_matches_stats():
    """The INTERRUPT compute path records spans too."""
    info = get_benchmark("grid")
    trace = measure(info.make_program()(4), 4, name="grid")
    params = presets.distributed_memory().with_(
        processor={"policy": "interrupt"}
    )
    out = extrapolate(trace, params, observe=True)
    for p in out.result.processors:
        totals = out.result.timeline.category_totals(p.pid)
        for cat, expected in p.categories.items():
            assert math.isclose(
                totals.get(cat, 0.0), expected, rel_tol=1e-9, abs_tol=1e-6
            )
