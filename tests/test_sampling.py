"""repro.sampling: interval splitting, clustering, sampled estimation."""

import json

import pytest

from repro import measure
from repro.bench.suite import get_benchmark
from repro.core.presets import by_name
from repro.des import SimulationStalled
from repro.experiments.paramsets import matmul_config
from repro.sampling import (
    SamplingConfig,
    build_plan,
    estimate_sampled,
    sample_report,
    split_trace,
)
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace, TraceMeta


def barrier_trace(n_epochs=6, n_threads=2, nbytes=64):
    """A hand-built trace: n_epochs compute+barrier episodes."""
    events = []
    t = 0.0
    for th in range(n_threads):
        events.append(TraceEvent(t, th, EventKind.THREAD_BEGIN))
    for epoch in range(n_epochs):
        for th in range(n_threads):
            t += 1.0
            events.append(
                TraceEvent(
                    t,
                    th,
                    EventKind.REMOTE_READ,
                    owner=(th + 1) % n_threads,
                    nbytes=nbytes * (1 + epoch % 2),
                )
            )
        for th in range(n_threads):
            t += 1.0
            events.append(TraceEvent(t, th, EventKind.BARRIER_ENTER, barrier_id=epoch))
        for th in range(n_threads):
            t += 1.0
            events.append(TraceEvent(t, th, EventKind.BARRIER_EXIT, barrier_id=epoch))
    for th in range(n_threads):
        t += 1.0
        events.append(TraceEvent(t, th, EventKind.THREAD_END))
    events.sort(key=lambda e: e.time)
    return Trace(TraceMeta(program="synthetic", n_threads=n_threads), events)


def matmul_trace(n=4):
    maker = get_benchmark("matmul").make_program(matmul_config(quick=True))
    return measure(maker(n), n, name="matmul")


# -- interval splitting ------------------------------------------------------


def test_barrier_split_epochs():
    tr = barrier_trace(n_epochs=6)
    split = split_trace(tr, SamplingConfig(mode="barrier"))
    assert split.mode == "barrier"
    # 6 barrier-closed intervals plus the trailing THREAD_END interval.
    assert split.n_intervals == 7
    assert split.events_total == len(tr.events)
    assert sum(iv.n_events for iv in split.intervals) == len(tr.events)
    # Every barrier-closed interval ends on a BARRIER_EXIT.
    for iv in split.intervals[:-1]:
        assert iv.events[-1].kind is EventKind.BARRIER_EXIT


def test_events_mode_fixed_chunks():
    tr = barrier_trace(n_epochs=8)
    split = split_trace(tr, SamplingConfig(mode="events", interval_events=10))
    assert split.mode == "events"
    assert split.interval_events == 10
    assert split.events_total == len(tr.events)
    # Chunks never cut while a barrier episode is open, so sizes may
    # run over the nominal chunk — but every event lands in exactly one
    # interval.
    assert sum(iv.n_events for iv in split.intervals) == len(tr.events)
    assert split.n_intervals > 1


def test_auto_falls_back_without_barriers():
    events = [TraceEvent(0.0, 0, EventKind.THREAD_BEGIN)]
    events += [
        TraceEvent(1.0 + i, 0, EventKind.REMOTE_READ, owner=0, nbytes=8)
        for i in range(40)
    ]
    events.append(TraceEvent(99.0, 0, EventKind.THREAD_END))
    tr = Trace(TraceMeta(program="nb", n_threads=1), events)
    split = split_trace(tr, SamplingConfig(mode="auto", interval_events=10))
    assert split.mode == "events"
    assert split.n_intervals > 1


def test_prev_times_track_leading_gap():
    tr = barrier_trace(n_epochs=3)
    split = split_trace(tr, SamplingConfig(mode="barrier"))
    later = split.intervals[1]
    # Every thread active in interval 1 has a previous-event time from
    # interval 0, strictly before its first event here.
    assert later.prev_times
    for thread, prev in later.prev_times.items():
        mine = [e.time for e in later.events if e.thread == thread]
        assert prev < min(mine)


def test_plan_deterministic_for_seed():
    tr = matmul_trace(4)
    split = split_trace(tr, SamplingConfig())
    a = build_plan(split, SamplingConfig(seed=3))
    b = build_plan(split, SamplingConfig(seed=3))
    assert a.to_dict() == b.to_dict()


def test_plan_weights_cover_all_intervals():
    tr = matmul_trace(4)
    split = split_trace(tr, SamplingConfig())
    plan = build_plan(split, SamplingConfig())
    assert sum(c.weight for c in plan.clusters) == split.n_intervals
    assert 1 <= plan.k <= 8
    reps = {c.representative for c in plan.clusters}
    assert len(reps) == plan.k  # distinct representatives


def test_fewer_intervals_than_max_phases():
    tr = barrier_trace(n_epochs=2)  # 3 intervals
    split = split_trace(tr, SamplingConfig())
    plan = build_plan(split, SamplingConfig(max_phases=8))
    assert plan.k <= split.n_intervals


# -- estimation --------------------------------------------------------------


def test_zero_event_trace_rejected():
    tr = Trace(TraceMeta(program="empty", n_threads=1), [])
    with pytest.raises(ValueError, match="empty"):
        estimate_sampled(tr, by_name("cm5"), SamplingConfig())


def test_single_interval_trace_is_exact():
    """One interval → its representative IS the whole trace."""
    from repro.core.pipeline import extrapolate

    events = [
        TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
        TraceEvent(0.0, 1, EventKind.THREAD_BEGIN),
    ]
    for i in range(5):
        events.append(TraceEvent(1.0 + i, 0, EventKind.REMOTE_READ, owner=1, nbytes=8))
        events.append(TraceEvent(1.5 + i, 1, EventKind.REMOTE_READ, owner=0, nbytes=8))
    events.append(TraceEvent(10.0, 0, EventKind.THREAD_END))
    events.append(TraceEvent(10.0, 1, EventKind.THREAD_END))
    events.sort(key=lambda e: e.time)
    tr = Trace(TraceMeta(program="one", n_threads=2), events)
    params = by_name("cm5")
    # events mode with a huge chunk keeps everything in one interval
    cfg = SamplingConfig(mode="events", interval_events=1000)
    outcome = estimate_sampled(tr, params, cfg)
    assert outcome.plan.k == 1
    full = extrapolate(tr, params)
    assert outcome.predicted_time == pytest.approx(full.predicted_time, rel=1e-9)


def test_estimate_simulates_fewer_events():
    tr = matmul_trace(4)
    outcome = estimate_sampled(tr, by_name("cm5"), SamplingConfig())
    assert outcome.events_simulated < len(tr.events)
    assert outcome.result.estimated is True
    sampling = outcome.result.sampling
    assert sampling["events_total"] == len(tr.events)
    assert sampling["events_simulated"] == outcome.events_simulated
    assert "predicted_time_us" in sampling["error_bars"]


def test_estimate_byte_deterministic():
    tr = matmul_trace(4)
    params = by_name("cm5")
    cfg = SamplingConfig(seed=7)
    a = estimate_sampled(tr, params, cfg)
    b = estimate_sampled(tr, params, cfg)
    assert json.dumps(a.result.sampling, sort_keys=True) == json.dumps(
        b.result.sampling, sort_keys=True
    )
    assert a.predicted_time == b.predicted_time


def test_wall_budget_caps_the_whole_estimate():
    """The budget covers planning plus every representative, not each one."""
    tr = matmul_trace(8)
    with pytest.raises(SimulationStalled, match="wall-clock budget"):
        estimate_sampled(tr, by_name("cm5"), SamplingConfig(), wall_clock_budget=1e-6)
    budgeted = estimate_sampled(
        tr, by_name("cm5"), SamplingConfig(), wall_clock_budget=600.0
    )
    assert budgeted.predicted_time == estimate_sampled(
        tr, by_name("cm5"), SamplingConfig()
    ).predicted_time


def test_sample_report_mentions_plan():
    tr = matmul_trace(4)
    report = sample_report(tr, SamplingConfig())
    assert "chosen k:" in report
    assert "intervals:" in report
    assert "representative" in report


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        SamplingConfig(mode="nope")
    with pytest.raises(ValueError, match="max_phases"):
        SamplingConfig(max_phases=0)
    with pytest.raises(ValueError, match="did you mean"):
        SamplingConfig.from_dict({"max_phase": 4})
