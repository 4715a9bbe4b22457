"""Metrics derivation and scaling studies."""

import pytest

from repro.core import presets
from repro.core.pipeline import measure
from repro.experiments.paramsets import PROCESSOR_COUNTS
from repro.metrics import derive_metrics, speedups
from repro.pcxx import Collection, make_distribution
from repro.sweep.executor import extrapolate_many


def compute_heavy(n_threads):
    """Fixed 40 ms of total work, strong-scaled across the threads."""

    def factory(rt):
        n = rt.n_threads
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=8)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            yield from ctx.compute_us(40000.0 / n)
            if n > 1:
                yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
            yield from ctx.barrier()

        return body

    return factory


def test_speedups():
    assert speedups({1: 100.0, 2: 50.0, 4: 40.0}) == {1: 1.0, 2: 2.0, 4: 2.5}
    assert speedups({}) == {}
    with pytest.raises(ValueError):
        speedups({1: 0.0, 2: 2.0})


def test_speedups_uses_smallest_count_as_base():
    s = speedups({4: 50.0, 8: 25.0})
    assert s == {4: 1.0, 8: 2.0}


def test_paper_processor_counts():
    assert tuple(PROCESSOR_COUNTS) == (1, 2, 4, 8, 16, 32)


def _degenerate_result(execution_time=0.0, n_processors=1):
    """A SimulationResult with no real work behind it."""
    from repro.sim.network import NetworkStats
    from repro.sim.result import ProcessorStats, SimulationResult
    from repro.trace.trace import TraceMeta

    return SimulationResult(
        meta=TraceMeta(n_threads=max(n_processors, 1)),
        params=presets.distributed_memory(),
        execution_time=execution_time,
        processors=[ProcessorStats(pid=i) for i in range(n_processors)],
        threads=[],
        network=NetworkStats(),
    )


def test_derive_metrics_guards_zero_execution_time():
    """Regression: a zero-time result with a baseline used to raise
    ZeroDivisionError; speedup/efficiency must come back as None."""
    m = derive_metrics(_degenerate_result(execution_time=0.0), baseline_time=10.0)
    assert m.speedup is None and m.efficiency is None
    assert m.utilization == 0.0


def test_derive_metrics_guards_negative_execution_time():
    m = derive_metrics(_degenerate_result(execution_time=-5.0), baseline_time=10.0)
    assert m.speedup is None and m.efficiency is None


def test_derive_metrics_guards_no_processors():
    m = derive_metrics(
        _degenerate_result(execution_time=3.0, n_processors=0), baseline_time=10.0
    )
    assert m.speedup is None and m.efficiency is None
    assert m.n_processors == 0
    assert m.utilization == 0.0


def test_derive_metrics_rejects_bad_baseline():
    with pytest.raises(ValueError):
        derive_metrics(_degenerate_result(execution_time=1.0), baseline_time=0.0)


def test_derive_metrics_without_baseline():
    from repro.core.pipeline import measure_and_extrapolate

    out = measure_and_extrapolate(
        compute_heavy(2), 2, presets.distributed_memory(), name="m"
    )
    m = derive_metrics(out.result)
    assert m.speedup is None and m.efficiency is None
    assert m.execution_time > 0
    assert m.n_processors == 2
    assert 0 < m.utilization <= 1
    assert m.comp_comm_ratio > 0
    assert m.barrier_count == 1


def test_derive_metrics_with_baseline():
    from repro.core.pipeline import measure_and_extrapolate

    out = measure_and_extrapolate(
        compute_heavy(4), 4, presets.distributed_memory(), name="m"
    )
    m = derive_metrics(out.result, baseline_time=4 * out.result.execution_time)
    assert m.speedup == pytest.approx(4.0)
    assert m.efficiency == pytest.approx(1.0)
    with pytest.raises(ValueError):
        derive_metrics(out.result, baseline_time=0.0)


def test_scaling_grid_speedups():
    """A scaling study is one trace per processor count, one
    ``extrapolate_many`` call and ``speedups`` of the predicted times."""
    counts = (1, 2, 4)
    params = presets.distributed_memory()
    records = extrapolate_many(
        [(measure(compute_heavy(n), n, name="ch"), params) for n in counts]
    )
    times = {n: r["predicted_time_us"] for n, r in zip(counts, records)}
    curve = speedups(times)
    assert sorted(curve) == [1, 2, 4]
    assert curve[1] == 1.0
    assert curve[2] > 1.5  # compute-heavy: near-linear
    assert curve[4] > 2.5
    assert min(times, key=times.get) == 4


def test_comp_comm_ratio_infinite_without_comm():
    from repro.core.pipeline import measure_and_extrapolate

    out = measure_and_extrapolate(
        compute_heavy(1), 1, presets.ideal(), name="m"
    )
    m = derive_metrics(out.result)
    assert m.comp_comm_ratio == float("inf")
