"""Sweep executor: serial/parallel determinism, retries, failure capture."""

import copy

import pytest

import repro.trace.trace as trace_mod
from repro.bench.suite import get_benchmark
from repro.core.pipeline import measure
from repro.sweep import ParallelExecutor, ResultCache, SweepSpec, run_sweep
from repro.sweep.analyze import best_record, format_run, pareto_front


@pytest.fixture(scope="module")
def embar_trace():
    info = get_benchmark("embar")
    return measure(info.make_program()(4), 4, name="embar")


@pytest.fixture(scope="module")
def spec():
    return SweepSpec.from_dict(
        {
            "name": "t",
            "preset": "cm5",
            "grid": {
                "network.hop_time": [0.1, 0.2],
                "processor.mips_ratio": [0.5, 1.0],
            },
        }
    )


# -- generic executor --------------------------------------------------------


def _double(x):
    return x * 2


def _boom(x):
    raise RuntimeError(f"boom {x}")


def test_map_serial_ordered():
    ex = ParallelExecutor(1)
    outs = ex.map(_double, [3, 1, 2])
    assert [o.value for o in outs] == [6, 2, 4]
    assert all(o.ok for o in outs)


def test_map_parallel_matches_serial_order():
    tasks = list(range(10))
    serial = ParallelExecutor(1).map(_double, tasks)
    parallel = ParallelExecutor(3).map(_double, tasks)
    assert [o.value for o in serial] == [o.value for o in parallel]
    assert [o.index for o in parallel] == list(range(10))


def test_failures_recorded_not_raised():
    outs = ParallelExecutor(1).map(_boom, [1, 2])
    assert all(not o.ok for o in outs)
    assert outs[0].error_type == "RuntimeError"
    assert "boom 1" in outs[0].error


def test_jobs_validation():
    with pytest.raises(ValueError, match="jobs"):
        ParallelExecutor(0)
    with pytest.raises(ValueError, match="retries"):
        ParallelExecutor(1, retries=-1)


def test_retry_on_matching_error_type(monkeypatch):
    calls = {"n": 0}

    def flaky(x):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return x

    ex = ParallelExecutor(1, retries=2, retry_on=("RuntimeError",))
    outs = ex.map(flaky, [7])
    assert outs[0].ok and outs[0].value == 7
    assert outs[0].attempts == 2
    assert ex.retried == 1


def test_retries_exhausted_records_failure():
    ex = ParallelExecutor(1, retries=2, retry_on=("RuntimeError",))
    outs = ex.map(_boom, [1])
    assert not outs[0].ok
    assert outs[0].attempts == 3


# -- sweep determinism -------------------------------------------------------


def test_serial_vs_parallel_sweep_identical_json(spec, embar_trace):
    run1 = run_sweep(spec, trace=embar_trace, jobs=1)
    run4 = run_sweep(spec, trace=embar_trace, jobs=4)
    assert run1.to_json() == run4.to_json()
    assert format_run(run1) == format_run(run4)


def test_cached_rerun_identical_json(spec, embar_trace, tmp_path):
    cache = ResultCache(tmp_path / "c")
    cold = run_sweep(spec, trace=embar_trace, jobs=2, cache=cache)
    warm = run_sweep(spec, trace=embar_trace, jobs=1, cache=cache)
    assert cold.to_json() == warm.to_json()
    assert cold.counters.cache_misses == 4 and cold.counters.cache_hits == 0
    assert warm.counters.cache_hits == 4 and warm.counters.cache_misses == 0
    assert warm.counters.hit_rate == 1.0
    assert warm.counters.executed == 0


def test_concurrent_serial_sweeps_keep_their_own_traces(spec, embar_trace, monkeypatch):
    """Two serial sweeps in two threads, as serve's job workers run them:
    each extrapolates its own trace even when the other shipped its
    traces in between."""
    import threading

    import repro.sweep.executor as executor_mod
    from repro.core.memo import PREPARED

    traces = [embar_trace, measure(get_benchmark("sort").make_program()(4), 4)]
    expected = [run_sweep(spec, trace=t).to_json() for t in traces]
    both_shipped = threading.Barrier(2, timeout=30)
    real_init = executor_mod._init_worker_traces

    def init_then_wait(shipped):
        real_init(shipped)
        both_shipped.wait()

    monkeypatch.setattr(executor_mod, "_init_worker_traces", init_then_wait)
    PREPARED.clear()  # cold memo: every point reads its shipped trace
    got = [None, None]

    def sweep(i):
        got[i] = run_sweep(spec, trace=traces[i]).to_json()

    threads = [threading.Thread(target=sweep, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == expected


def test_repeated_sweeps_hash_their_trace_once(tmp_path, monkeypatch):
    """The trace's digest memo spares every run_sweep call after the first."""
    info = get_benchmark("matmul")
    trace = measure(info.make_program()(4), 4, name="matmul")
    twin = copy.deepcopy(trace)  # hashed afresh below
    hashes = []
    real = trace_mod.digest_events

    def counting(meta, events):
        hashes.append(len(events))
        return real(meta, events)

    monkeypatch.setattr(trace_mod, "digest_events", counting)

    def sweeps(t, cache_dir, jobs=1):
        cache = ResultCache(cache_dir)
        records = []
        for hop in (0.5, 1.5):
            spec = SweepSpec(
                name=f"hop{hop}", preset="cm5",
                points=[{"network.hop_time": hop}], sample={"seed": 0},
            )
            run = run_sweep(spec, trace=t, jobs=jobs, cache=cache)
            assert cache.misses == len(records) + 1
            records += [r.result for r in run.records]
        return records, sorted(p.name for p in cache_dir.rglob("*.json"))

    records, files = sweeps(trace, tmp_path / "once")
    assert hashes == [len(trace.events)]
    assert (records, files) == sweeps(twin, tmp_path / "twin")
    assert len(hashes) == 2
    # A pool run gives the same bytes, and the parent does not rehash.
    assert sweeps(trace, tmp_path / "jobs2", jobs=2) == (records, files)
    assert len(hashes) == 2


def test_n_threads_axis_rejected_in_trace_mode(embar_trace):
    spec = SweepSpec.from_dict(
        {"grid": {"n_threads": [2, 4]}, "benchmark": "embar"}
    )
    with pytest.raises(ValueError, match="n_threads"):
        run_sweep(spec, trace=embar_trace)


def test_benchmark_mode_with_thread_axis(tmp_path):
    spec = SweepSpec.from_dict(
        {
            "name": "bm",
            "preset": "cm5",
            "benchmark": "embar",
            "grid": {"n_threads": [2, 4]},
        }
    )
    run = run_sweep(spec, cache=ResultCache(tmp_path / "c"))
    assert all(r.ok for r in run.records)
    assert [r.result["n_threads"] for r in run.records] == [2, 4]
    # Bigger runs take longer on the simulated machine too.
    assert (
        run.records[1].result["predicted_time_us"]
        != run.records[0].result["predicted_time_us"]
    )


def test_no_trace_no_benchmark_rejected():
    spec = SweepSpec.from_dict({"points": [{}]})
    with pytest.raises(ValueError, match="benchmark"):
        run_sweep(spec)


# -- analysis ----------------------------------------------------------------


def test_best_and_pareto(spec, embar_trace):
    run = run_sweep(spec, trace=embar_trace)
    best = best_record(run)
    assert best.result["predicted_time_us"] == min(
        r.result["predicted_time_us"] for r in run.records
    )
    front = pareto_front(run)
    assert best in front
    # Nothing on the front is dominated by anything else on it.
    for a in front:
        for b in front:
            if a is b:
                continue
            assert not (
                b.result["predicted_time_us"] <= a.result["predicted_time_us"]
                and b.result["message_bytes"] <= a.result["message_bytes"]
                and (
                    b.result["predicted_time_us"]
                    < a.result["predicted_time_us"]
                    or b.result["message_bytes"] < a.result["message_bytes"]
                )
            )


# -- interrupt handling ------------------------------------------------------
#
# Ctrl-C during a parallel sweep must not strand worker processes: the
# old `with ProcessPoolExecutor` exit path ran shutdown(wait=True),
# which executes every queued task before returning.


def test_keyboard_interrupt_reaps_workers(monkeypatch):
    import multiprocessing
    import time

    from repro.sweep import executor as executor_mod

    def interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(executor_mod, "wait", interrupt)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        ParallelExecutor(2).map(_double, list(range(8)))
    assert time.monotonic() - t0 < 30  # no full-queue drain on the way out
    deadline = time.monotonic() + 15
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


def test_non_interrupt_error_still_propagates(monkeypatch):
    from repro.sweep import executor as executor_mod

    def explode(*_args, **_kwargs):
        raise RuntimeError("scheduler died")

    monkeypatch.setattr(executor_mod, "wait", explode)
    with pytest.raises(RuntimeError, match="scheduler died"):
        ParallelExecutor(2).map(_double, list(range(4)))
