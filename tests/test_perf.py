"""The repro.perf instrumentation layer: counters, timers, profiles, bench."""

import json

import pytest

from repro.des import Environment, Event
from repro.perf import EngineCounters, PhaseTimer, SimulationProfile
from repro.perf.bench import (
    WORKLOADS,
    format_results,
    load_baseline,
    run_benchmarks,
    write_baseline,
)


def test_counters_count_and_serialize():
    c = EngineCounters()
    env = Environment()
    ev = env.timeout(1)
    ev.callbacks.append(lambda _ev: None)
    c.count(Event._process, ev)
    c.count(Event._process, ev)
    c.count(Event._process, Event(env))
    c.count(lambda _arg: None, "arg")
    assert c.events_total == 4
    assert c.events_by_type == {"Timeout": 2, "Event": 1, "Call": 1}
    assert c.callbacks_fired == 3
    d = c.as_dict()
    assert d["events_total"] == 4
    json.dumps(d)  # must be serialisable
    assert "Timeout" in c.format()


def test_phase_timer_accumulates_wall_and_sim_time():
    env = Environment()
    timer = PhaseTimer(env)
    with timer.phase("replay"):
        env.timeout(250.0)
        env.run()
    with timer.phase("replay"):
        env.timeout(250.0)
        env.run()
    rec = timer.phases["replay"]
    assert rec.count == 2
    assert rec.sim_us == pytest.approx(500.0)
    assert rec.wall_s >= 0.0
    assert "replay" in timer.format()
    json.dumps(timer.as_dict())


def test_phase_timer_without_env():
    timer = PhaseTimer()
    with timer.phase("setup"):
        pass
    assert timer.phases["setup"].sim_us == 0.0


def test_simulation_profile_export():
    p = SimulationProfile()
    assert p.events_per_second is None
    p.counters.events_total = 1000
    p.wall_time_s = 0.5
    p.sim_time_us = 123.0
    assert p.events_per_second == pytest.approx(2000.0)
    d = p.as_dict()
    assert d["events_per_second"] == pytest.approx(2000.0)
    json.dumps(d)
    assert "simulation profile" in p.format()


def test_bench_workloads_are_deterministic():
    """Every reference workload must produce a stable event count."""
    for name, (fn, size) in WORKLOADS.items():
        small = min(size, 8)
        first, second = fn(small), fn(small)
        if isinstance(first, dict):
            # Wall-clock extras (latencies) legitimately vary; the event
            # count and cache behaviour must not.
            assert first["events"] == second["events"], name
            assert first.get("cache_hit_rate") == second.get(
                "cache_hit_rate"
            ), name
        else:
            assert first == second, name


def test_run_benchmarks_and_baseline_roundtrip(tmp_path):
    results = run_benchmarks(scale=0.01, repeats=1, workloads=["timeout_chain"])
    wl = results["workloads"]["timeout_chain"]
    assert wl["events"] > 0
    assert wl["events_per_s"] is None or wl["events_per_s"] > 0
    path = write_baseline(results, tmp_path / "BENCH_engine.json")
    back = load_baseline(path)
    assert back["workloads"]["timeout_chain"]["events"] == wl["events"]
    text = format_results(results, back)
    assert "timeout_chain" in text and "1.00x baseline" in text
    # One repeat: its median is its best, and there is no spread.
    assert wl["median_s"] == wl["best_s"] and wl["iqr_s"] == 0.0
    assert "[IQR 0.00 ms]" in text


def test_run_benchmarks_records_median_and_iqr_of_repeats():
    results = run_benchmarks(scale=0.01, repeats=4, workloads=["timeout_chain"])
    wl = results["workloads"]["timeout_chain"]
    assert wl["best_s"] <= wl["median_s"]
    assert wl["iqr_s"] >= 0.0
    text = format_results(results)
    assert f"median {wl['median_s'] * 1e3:.2f} ms" in text


def test_load_baseline_rejects_bad_schema(tmp_path):
    path = tmp_path / "BENCH_engine.json"
    path.write_text(json.dumps({"schema": 999, "workloads": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_baseline(path)


def test_run_benchmarks_rejects_bad_repeats():
    with pytest.raises(ValueError):
        run_benchmarks(repeats=0)


def test_simulate_profile_flag():
    """simulate(profile=True) attaches a complete profile."""
    from repro.core import presets
    from repro.core.pipeline import measure
    from repro.core.translation import translate
    from repro.pcxx import Collection, make_distribution
    from repro.sim.simulator import simulate

    def program(rt):
        n = rt.n_threads
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=8)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            yield from ctx.compute_us(50.0)
            yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
            yield from ctx.barrier()

        return body

    tp = translate(measure(program, 4, name="p"))
    plain = simulate(tp, presets.distributed_memory())
    profiled = simulate(tp, presets.distributed_memory(), profile=True)
    assert plain.profile is None
    assert profiled.profile is not None
    assert profiled.execution_time == plain.execution_time
    assert profiled.profile.counters.events_total > 0
    assert profiled.profile.wall_time_s > 0
    assert profiled.profile.sim_time_us >= profiled.execution_time
    # The profile block renders into the debugging report.
    from repro.metrics.report import profile_section

    assert "engine counters" in profile_section(profiled)
    assert profile_section(plain) == ""
