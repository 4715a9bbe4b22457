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
A run that raises is released too: a stalled replay (the queue drained
with a reply lost, a barrier one thread never reaches in flag mode and
with k = 2), a runaway past ``max_events`` and a model error stopped
with calls still queued and a raced wait pending, and a reference
machine that deadlocks or runs a body that yields a stray value.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import presets
from repro.core.pipeline import PreparedTrace, extrapolate, measure
from repro.core.translation import TranslatedProgram, translate
from repro.des import SimulationStalled
from repro.faults.plan import FaultPlan
from repro.machine import CM5_SPEC, Machine, run_on_machine
from repro.sampling import SamplingConfig
from repro.sampling.estimate import estimate_sampled
from repro.sim.messages import Message, MsgKind
from repro.sim.simulator import Simulator, simulate
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import ThreadTrace, TraceMeta
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


def raising(exc_type, run):
    """A call that expects ``run()`` to raise ``exc_type``; it binds no
    name to the exception, whose traceback holds the call's frame."""

    def call():
        try:
            run()
        except exc_type:
            return
        raise AssertionError(f"expected {exc_type.__name__}")

    return call


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


#: Every request and reply lost, no retry left: the queue drains with
#: both processors waiting on a reply.
LOSE_ALL = FaultPlan(
    seed=1,
    msg_loss_rate=1.0,
    loss_kinds=("request", "reply"),
    request_timeout=500.0,
    max_retries=1,
)


def partial_barrier() -> TranslatedProgram:
    """Thread 0 enters barrier 0, thread 1 never does (``translate()``
    refuses such a trace, so it is built directly)."""

    def thread(tid, *kinds):
        events = [TraceEvent(0.0, tid, EventKind.THREAD_BEGIN)]
        events += [TraceEvent(1.0, tid, k, barrier_id=0) for k in kinds]
        events.append(TraceEvent(2.0, tid, EventKind.THREAD_END))
        return ThreadTrace(tid, events)

    return TranslatedProgram(
        TraceMeta(program="partial", n_threads=2),
        [thread(0, EventKind.BARRIER_ENTER, EventKind.BARRIER_EXIT), thread(1)],
    )


def stray_reply_run(grid):
    sim = Simulator(grid, presets.distributed_memory())
    sim.processors[1].deliver(Message(MsgKind.REPLY, 0, 1, 8, 999))
    return sim.run()


@pytest.mark.parametrize(
    "case",
    [
        "lost-replies", "flag-barrier", "k2-parked", "runaway",
        "runaway-flag", "stray-reply",
    ],
)
def test_failed_simulate_leaves_no_cycle(grid, case):
    dm = presets.distributed_memory()
    run, exc_type = {
        "lost-replies": (
            lambda: simulate(grid, dm.with_faults(LOSE_ALL)), SimulationStalled
        ),
        "flag-barrier": (
            lambda: simulate(partial_barrier(), presets.shared_memory()),
            SimulationStalled,
        ),
        "k2-parked": (
            lambda: simulate(partial_barrier(), presets.cm5(), assignment=[0, 0]),
            SimulationStalled,
        ),
        "runaway": (lambda: simulate(grid, dm, max_events=50), RuntimeError),
        "runaway-flag": (
            lambda: simulate(grid, presets.shared_memory(), max_events=300),
            RuntimeError,
        ),
        "stray-reply": (lambda: stray_reply_run(grid), RuntimeError),
    }[case]
    assert unreachable_after(raising(exc_type, run)) == 0


def machine_failure(case: str):
    def factory(machine):
        def barrier_body(ctx):
            yield from ctx.compute(100.0)
            yield from ctx.barrier()

        def skip_body(ctx):
            yield from ctx.compute(100.0)

        def stray_body(ctx):
            yield from ctx.compute(100.0)
            yield "not an operation"

        return [barrier_body, skip_body if case == "deadlock" else stray_body]

    return factory


@pytest.mark.parametrize("case", ["deadlock", "stray-yield"])
def test_failed_run_on_machine_leaves_no_cycle(case):
    assert unreachable_after(
        raising(RuntimeError, lambda: run_on_machine(machine_failure(case), 2))
    ) == 0
    # A body left suspended holds its node, which holds the body.  The
    # collector frees that cycle through the generator's finalizer and
    # does not count it, so check that the node is already gone.
    nodes = []

    def run():
        machine = Machine(2)
        nodes.append(weakref.ref(machine.nodes[0]))
        machine.run(machine_failure(case))

    gc.disable()
    try:
        raising(RuntimeError, run)()
        assert nodes[0]() is None
    finally:
        gc.enable()
