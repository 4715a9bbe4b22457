"""Per-phase metrics from MARK events."""

import pytest

from repro.core import presets
from repro.core.pipeline import extrapolate, measure
from repro.metrics.phases import PhaseError, phase_stats, phase_table
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import ThreadTrace


def tt(events):
    return ThreadTrace(0, events)


def mark(t, tag, thread=0):
    return TraceEvent(t, thread, EventKind.MARK, tag=tag)


def test_basic_phase_extraction():
    threads = [
        tt(
            [
                mark(0.0, "begin:a"),
                mark(10.0, "end:a"),
                mark(10.0, "begin:b"),
                mark(25.0, "end:b"),
                mark(30.0, "begin:a"),
                mark(32.0, "end:a"),
            ]
        )
    ]
    stats = phase_stats(threads)
    assert stats["a"].per_thread == {0: 12.0}
    assert stats["a"].episodes == 2
    assert stats["b"].per_thread == {0: 15.0}


def test_per_thread_aggregation_and_imbalance():
    threads = [
        ThreadTrace(0, [mark(0.0, "begin:x"), mark(10.0, "end:x")]),
        ThreadTrace(1, [mark(0.0, "begin:x", 1), mark(30.0, "end:x", 1)]),
    ]
    st = phase_stats(threads)["x"]
    assert st.total == 40.0
    assert st.max_thread == 30.0
    assert min(st.per_thread.values()) == 10.0
    assert st.imbalance == pytest.approx(1.5)


def test_nesting_different_phases_ok():
    threads = [
        tt(
            [
                mark(0.0, "begin:outer"),
                mark(2.0, "begin:inner"),
                mark(5.0, "end:inner"),
                mark(9.0, "end:outer"),
            ]
        )
    ]
    stats = phase_stats(threads)
    assert stats["outer"].per_thread[0] == 9.0
    assert stats["inner"].per_thread[0] == 3.0


@pytest.mark.parametrize(
    "events,err",
    [
        ([mark(0.0, "begin:a"), mark(1.0, "begin:a")], "begun twice"),
        ([mark(0.0, "end:a")], "without a begin"),
        ([mark(0.0, "begin:a")], "never ended"),
    ],
)
def test_malformed_markers(events, err):
    with pytest.raises(PhaseError, match=err):
        phase_stats([tt(events)])


def test_non_phase_marks_ignored():
    stats = phase_stats([tt([mark(0.0, "checkpoint-1")])])
    assert stats == {}


def test_phase_table_formatting():
    threads = [tt([mark(0.0, "begin:a"), mark(10.0, "end:a")])]
    out = phase_table(threads)
    assert "phase" in out and "a" in out
    assert "(no phase markers" in phase_table([tt([])])


def test_phases_survive_the_full_pipeline():
    """Poisson marks dst/transpose/solve; the predictions carry them."""
    from repro.bench.poisson import PoissonConfig, make_program

    cfg = PoissonConfig(size=16)
    trace = measure(make_program(cfg)(4), 4, name="poisson")
    # Marks exist in the measured trace...
    assert phase_stats(trace.split_by_thread())["transpose"].episodes == 8
    # ...and in the extrapolated traces with predicted timings.
    outcome = extrapolate(trace, presets.distributed_memory())
    stats = phase_stats(outcome.result.threads)
    assert set(stats) == {"dst", "transpose", "solve"}
    assert stats["transpose"].total > 0
    # The transposes carry the communication: under a slow network they
    # dominate the predicted time far more than under an ideal one.
    ideal = extrapolate(trace, presets.ideal())
    slow_share = stats["transpose"].total / outcome.predicted_time
    ideal_stats = phase_stats(ideal.result.threads)
    ideal_share = ideal_stats["transpose"].total / ideal.predicted_time
    assert slow_share > ideal_share
