"""Oracle: a finished run leaves no reference cycle behind.

One process runs many replays (an in-process ``extrap predict``, every
sweep point, every ``serve`` miss).  Once a call returns and its result
is dropped, everything it built must be freed by reference counting,
not left for the cyclic collector (docs/ARCHITECTURE.md, "Lifetime").
Each call is made once to warm imports and lazy caches; then, after a
full collection and with the collector off, it is made again and its
result dropped, and a second collection must find nothing unreachable.

The configurations cover every code path that keeps a continuation or
a cached step: every preset, service policy and barrier algorithm in
message and flag mode, k > 1 threads per processor, observation,
profiling, and fault plans whose accesses time out, retry and give up.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import presets
from repro.core.pipeline import PreparedTrace, extrapolate, measure
from repro.core.translation import translate
from repro.faults.plan import FaultPlan
from repro.machine import CM5_SPEC, run_on_machine
from repro.sampling import SamplingConfig
from repro.sampling.estimate import estimate_sampled
from repro.sim.simulator import simulate
from tests.test_machine_pin import ZERO_SPEC
from tests.test_replay_golden import FAULT_PLANS, SMALL_CONFIGS

THREADS = 4

#: Timeouts far shorter than a reply's round trip, with no retry left:
#: every remote access gives up at once and then completes on its
#: original reply.
GIVE_UP = FaultPlan(seed=3, request_timeout=1.0, max_retries=0)


def unreachable_after(call) -> int:
    """Objects the second of two ``call()``\\ s leaves to the cyclic
    collector (its result dropped)."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def small_trace(name: str, n: int = THREADS):
    info = BENCHMARKS[name]
    maker = info.make_program(info.make_config(**SMALL_CONFIGS[name]))
    return measure(maker(n), n, name=name)


@pytest.fixture(scope="module")
def grid():
    return translate(small_trace("grid"))


@pytest.mark.parametrize("by_msgs", [True, False], ids=["msgs", "flag"])
@pytest.mark.parametrize("algorithm", ["linear", "log", "hardware"])
@pytest.mark.parametrize("policy", ["no_interrupt", "interrupt", "poll"])
@pytest.mark.parametrize("preset", sorted(presets.PRESETS))
def test_simulate_leaves_no_cycle(grid, preset, policy, algorithm, by_msgs):
    params = presets.by_name(preset).with_(
        processor={"policy": policy},
        barrier={"algorithm": algorithm, "by_msgs": by_msgs},
    )
    assert unreachable_after(lambda: simulate(grid, params)) == 0


@pytest.mark.parametrize(
    "options",
    [
        {"assignment": [0, 0, 1, 1]},
        {"assignment": [0, 1, 0, 1], "observe": True},
        {"observe": True},
        {"profile": True},
    ],
    ids=["k2-block", "k2-cyclic-observe", "observe", "profile"],
)
def test_simulate_options_leave_no_cycle(grid, options):
    params = presets.distributed_memory()
    assert unreachable_after(lambda: simulate(grid, params, **options)) == 0


@pytest.mark.parametrize("assignment", [None, [0, 0, 1, 1]], ids=["k1", "k2"])
@pytest.mark.parametrize("plan", ["loss", "noise", "give_up"])
@pytest.mark.parametrize("preset", ["distributed_memory", "shared_memory"])
def test_faulted_simulate_leaves_no_cycle(grid, preset, plan, assignment):
    fault_plan = GIVE_UP if plan == "give_up" else FAULT_PLANS[plan]
    params = presets.by_name(preset).with_faults(fault_plan)
    result = simulate(grid, params, assignment=assignment, observe=True)
    if plan != "noise":
        assert sum(p.timeouts for p in result.processors) > 0
    if plan == "give_up":
        assert sum(p.retry_giveups for p in result.processors) > 0
    assert unreachable_after(
        lambda: simulate(grid, params, assignment=assignment, observe=True)
    ) == 0


@pytest.mark.parametrize("prepared", [False, True], ids=["trace", "prepared"])
def test_extrapolate_leaves_no_cycle(prepared):
    trace = small_trace("matmul")
    source = PreparedTrace(trace) if prepared else trace
    params = presets.cm5()
    assert unreachable_after(
        lambda: extrapolate(source, params, profile=True, observe=True)
    ) == 0


def test_estimate_sampled_leaves_no_cycle_and_keeps_its_plan():
    prepared = PreparedTrace(small_trace("sparse", 8))
    params = presets.distributed_memory()
    config = SamplingConfig()
    first = estimate_sampled(prepared, params, config)
    prep = prepared.sampling(config)
    assert unreachable_after(
        lambda: estimate_sampled(prepared, params, config)
    ) == 0
    # The cached plan and its representatives are the ones the first
    # call used, and still replay to the same estimate.
    assert prepared.sampling(config) is prep
    again = estimate_sampled(prepared, params, config)
    assert again.result.execution_time == first.result.execution_time
    assert again.result.processors == first.result.processors


@pytest.mark.parametrize("spec", [CM5_SPEC, ZERO_SPEC], ids=["cm5", "zero"])
@pytest.mark.parametrize("name", ["matmul", "grid", "sparse"])
def test_run_on_machine_leaves_no_cycle(name, spec):
    info = BENCHMARKS[name]
    maker = info.make_program(info.make_config(**SMALL_CONFIGS[name]))
    assert unreachable_after(
        lambda: run_on_machine(maker(8), 8, spec=spec, name=name)
    ) == 0


def test_finished_simulator_stays_readable(grid):
    """What a caller reads after ``run`` survives the release."""
    from repro.sim.simulator import Simulator

    sim = Simulator(grid, presets.distributed_memory(), assignment=[0, 0, 1, 1])
    result = sim.run()
    assert all(p.finished for p in sim.processors)
    assert sum(p.actions_done for p in sim.processors) > 0
    assert [p.stats for p in sim.processors] == result.processors
    events = {t.tid: t.events for p in sim.processors for t in p.threads}
    assert [events[t.thread] for t in result.threads] == [
        t.events for t in result.threads
    ]
