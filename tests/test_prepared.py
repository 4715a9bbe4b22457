"""Prepared traces and the process-wide memo.

Oracle (e): a prediction from a prepared, already-used memo entry is
byte-identical to one from a fresh trace, and a sampled sweep gives the
same bytes serially and in parallel whether the memo starts empty or
warm.  The memo tests pin down when per-trace work (planning,
translation) runs, and that the memo's events bound holds.
"""

import json
import sys
import threading

import pytest

import repro.sampling.estimate as estimate_mod
from repro import measure
from repro.bench.suite import get_benchmark
from repro.core import presets
from repro.core.memo import PREPARED, PreparedMemo
from repro.core.pipeline import PreparedTrace, extrapolate
from repro.core.predict import PredictMode, predict, predict_report
from repro.experiments.paramsets import matmul_config, suite_configs
from repro.metrics import result_record
from repro.sampling import SamplingConfig, estimate_sampled, sample_report
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.spec import apply_param_overrides

QUICK = {**suite_configs(quick=True), "matmul": matmul_config(quick=True)}
PRESETS = ("cm5", "distributed_memory")
SAMPLE = SamplingConfig(seed=0)


def _measure(name, n=4):
    return measure(get_benchmark(name).make_program(QUICK[name])(n), n, name=name)


@pytest.fixture(scope="module")
def traces():
    return {name: _measure(name) for name in sorted(QUICK)}


@pytest.fixture
def cold_memo():
    PREPARED.clear()
    yield PREPARED
    PREPARED.clear()


@pytest.fixture
def count_plans(monkeypatch):
    calls = []
    real = estimate_mod.build_plan

    def counting(split, config):
        calls.append(config)
        return real(split, config)

    monkeypatch.setattr(estimate_mod, "build_plan", counting)
    return calls


def _bytes(params, outcome):
    return json.dumps(result_record(outcome), sort_keys=True), predict_report(
        params, outcome
    )


# -- oracle (e): prepared equals unprepared ----------------------------------


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("sampled", [False, True], ids=["full", "sampled"])
@pytest.mark.parametrize("name", sorted(QUICK))
def test_warm_memo_entry_gives_fresh_bytes(traces, name, sampled, preset):
    trace = traces[name]
    mode = PredictMode(sample=SAMPLE if sampled else None)
    params = presets.by_name(preset)
    fresh = _bytes(params, predict(trace, params, mode))

    memo = PreparedMemo()
    entry = memo.prepare(trace)
    # Warm the entry at another machine point first: nothing it keeps
    # may depend on the machine parameters.
    other = apply_param_overrides(params, {"network.hop_time": 3.0})
    predict(entry, other, mode)
    assert memo.get(trace.digest()) is entry
    assert _bytes(params, predict(entry, params, mode)) == fresh


def test_sampled_sweep_bytes_serial_parallel_cold_warm(traces, cold_memo):
    trace = traces["matmul"]
    spec = SweepSpec.from_dict(
        {
            "name": "oracle-e",
            "preset": "cm5",
            "grid": {"network.hop_time": [0.5, 1.0, 2.0]},
            "sample": {"seed": 0},
        }
    )
    serial_cold = run_sweep(spec, trace=trace).to_json()
    serial_warm = run_sweep(spec, trace=trace).to_json()
    PREPARED.clear()
    parallel_cold = run_sweep(spec, trace=trace, jobs=2).to_json()
    run_sweep(spec, trace=trace)  # warm the parent's memo
    parallel_warm = run_sweep(spec, trace=trace, jobs=2).to_json()
    assert serial_warm == serial_cold
    assert parallel_cold == serial_cold
    assert parallel_warm == serial_cold


# -- when per-trace work runs ------------------------------------------------


def _sampled_spec(n_points, seed=0):
    return SweepSpec.from_dict(
        {
            "name": "memo",
            "preset": "cm5",
            "grid": {"network.hop_time": [0.25 * (i + 1) for i in range(n_points)]},
            "sample": {"seed": seed},
        }
    )


def test_sampled_sweep_plans_once_then_never(traces, cold_memo, count_plans):
    trace = traces["matmul"]
    run = run_sweep(_sampled_spec(16), trace=trace)
    assert all(rec.ok for rec in run.records)
    assert len(count_plans) == 1
    # The memo outlives one run_sweep call.
    run_sweep(_sampled_spec(16), trace=trace)
    assert len(count_plans) == 1
    # Another seed is another canonical config: a new plan.
    run_sweep(_sampled_spec(2, seed=1), trace=trace)
    assert [c.seed for c in count_plans] == [0, 1]


def test_cold_calls_stay_cold(traces, cold_memo, count_plans):
    """One-shot calls on a plain trace neither read nor fill the memo."""
    trace = traces["matmul"]
    params = presets.by_name("cm5")
    estimate_sampled(trace, params, SAMPLE)
    estimate_sampled(trace, params, SAMPLE)
    extrapolate(trace, params)
    assert len(count_plans) == 2
    assert len(cold_memo) == 0


def test_sample_report_uses_the_plan_builder(traces, count_plans):
    trace = traces["sort"]
    report = sample_report(trace, SAMPLE)
    prep = PreparedTrace(trace).sampling(SAMPLE)
    assert report == estimate_mod.plan_report(trace.meta, prep.split, prep.plan)
    assert len(count_plans) == 2


# -- the events bound --------------------------------------------------------


def test_events_held_stay_within_the_bound(traces):
    names = sorted(QUICK)
    sizes = {n: len(traces[n].events) for n in names}
    bound = 2 * max(sizes.values()) + 100
    memo = PreparedMemo(max_events=bound)
    params = presets.by_name("cm5")
    for name in names + names:
        trace = traces[name]
        entry = memo.prepare(trace)
        assert memo.events_held <= bound
        # A built plan adds its representatives to the events held.
        estimate_sampled(entry, params, SAMPLE)
        assert entry.events_held > sizes[name]
        assert memo.events_held <= bound
        assert trace.digest() in memo  # the newest entry fits alone
    assert 0 < len(memo) < len(names)


def test_entry_larger_than_the_bound_is_not_kept(traces):
    trace = traces["matmul"]
    memo = PreparedMemo(max_events=len(trace.events) - 1)
    entry = memo.prepare(trace)
    assert entry.trace is trace
    assert len(memo) == 0 and memo.events_held == 0


def test_memo_holds_under_thread_contention(traces):
    """Threads racing on one small memo get fresh bytes; the bound holds."""
    names = ("grid", "matmul", "mgrid", "sparse")
    params = presets.by_name("cm5")
    modes = (PredictMode(), PredictMode(sample=SAMPLE))
    expected = {
        (name, m): _bytes(params, predict(traces[name], params, mode))
        for name in names
        for m, mode in enumerate(modes)
    }
    bound = 2 * max(len(traces[n].events) for n in names) + 100
    memo = PreparedMemo(max_events=bound)
    errors = []

    def worker(k):
        try:
            for i in range(4):
                name, m = names[(k + i) % len(names)], (k + i) % 2
                trace = traces[name]
                entry = memo.prepare(trace)
                if _bytes(params, predict(entry, params, modes[m])) != expected[
                    name, m
                ]:
                    errors.append((name, m))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert memo.events_held <= bound
