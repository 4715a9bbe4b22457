"""``extrapolate_many``: the one fan-out for a grid of extrapolations.

Oracle (e) over generated grids: serial equals parallel, and both equal
a plain ``extrapolate`` of a fresh, unprepared copy of each trace.
"""

import copy
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sweep.executor as executor_mod
from repro.bench.suite import BENCHMARKS
from repro.core import presets
from repro.core.pipeline import extrapolate, measure
from repro.experiments.runner import run_experiment
from repro.metrics import result_record
from repro.sweep.executor import extrapolate_many
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace, TraceMeta

#: Small problem sizes: a whole generated grid runs in about a second.
SMALL_CONFIGS = {
    "embar": {"total_pairs": 1 << 10, "chunks": 8},
    "cyclic": {"system_size": 1 << 8},
    "grid": {"patch_rows": 2, "patch_cols": 2, "m": 4, "iterations": 2},
    "sort": {"total_keys": 1 << 8},
    "sparse": {"size": 32, "iterations": 2},
}


@functools.lru_cache(maxsize=None)
def _trace(name: str, n: int) -> Trace:
    info = BENCHMARKS[name]
    maker = info.make_program(info.make_config(**SMALL_CONFIGS[name]))
    return measure(maker(n), n, name=name)


points = st.tuples(
    st.sampled_from(sorted(SMALL_CONFIGS)),
    st.sampled_from((1, 2, 4)),
    st.sampled_from(sorted(presets.PRESETS)),
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(grid=st.lists(points, min_size=1, max_size=5))
def test_serial_parallel_and_fresh_records_agree(grid):
    """Oracle (e): jobs=1, jobs=2 and an unprepared ``extrapolate`` give
    the same record for every (benchmark, P, preset) point."""
    tasks = [(_trace(name, n), presets.by_name(preset)) for name, n, preset in grid]
    serial = extrapolate_many(tasks, jobs=1)
    parallel = extrapolate_many(tasks, jobs=2)
    fresh = [
        result_record(extrapolate(copy.deepcopy(trace), params))
        for trace, params in tasks
    ]
    assert serial == parallel == fresh


def test_experiment_parallel_csv_equals_serial():
    serial = run_experiment("fig7", jobs=1).to_csv()
    assert run_experiment("fig7", jobs=2).to_csv() == serial


@pytest.fixture(scope="module")
def partial_barrier_trace():
    """Only thread 0 enters barrier 0: the model rejects the trace."""
    return Trace(
        TraceMeta(program="partial", n_threads=2),
        [
            TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
            TraceEvent(1.0, 0, EventKind.BARRIER_ENTER, barrier_id=0),
            TraceEvent(2.0, 0, EventKind.BARRIER_EXIT, barrier_id=0),
            TraceEvent(3.0, 0, EventKind.THREAD_END),
            TraceEvent(0.0, 1, EventKind.THREAD_BEGIN),
            TraceEvent(3.0, 1, EventKind.THREAD_END),
        ],
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_rejected_trace_raises_value_error(partial_barrier_trace, jobs):
    """A trace the model cannot run raises ValueError with the message
    ``extrapolate`` gives, however many workers run the grid."""
    with pytest.raises(ValueError) as direct:
        extrapolate(copy.deepcopy(partial_barrier_trace), presets.cm5())
    tasks = [
        (_trace("embar", 2), presets.cm5()),
        (partial_barrier_trace, presets.cm5()),
    ]
    with pytest.raises(ValueError) as fanned:
        extrapolate_many(tasks, jobs=jobs)
    assert type(fanned.value) is ValueError
    assert str(fanned.value) == str(direct.value)


def test_other_failure_raises_runtime_error(monkeypatch):
    """Any other failure is a RuntimeError naming the first failed point."""
    calls = []

    def failing_record(outcome):
        calls.append(outcome)
        raise KeyError(f"point {len(calls)}")

    monkeypatch.setattr(executor_mod, "result_record", failing_record)
    tasks = [(_trace("embar", n), presets.cm5()) for n in (1, 2)]
    with pytest.raises(RuntimeError, match="2 of 2 extrapolations failed; "
                       "first: KeyError: 'point 1'"):
        extrapolate_many(tasks, jobs=1)


def test_empty_grid():
    assert extrapolate_many([], jobs=2) == []
