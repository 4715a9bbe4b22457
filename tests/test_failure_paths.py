"""Existing failure paths: deadlock, runaway guard, machine deadlock.

These paths predate the fault-injection subsystem but were largely
untested; a robustness layer is only as good as the diagnoses under it.
"""

import pytest

from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import TranslatedProgram, translate
from repro.des import SimulationStalled
from repro.machine import Machine
from repro.pcxx import Collection, make_distribution
from repro.sim.messages import Message, MsgKind
from repro.sim.simulator import Simulator, simulate
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import ThreadTrace, TraceMeta


def simple_program(n, work_us=1000.0, iters=2):
    def factory(rt):
        coll = Collection(
            "c", make_distribution(n, n, "block"), element_nbytes=64
        )
        for i in range(n):
            coll.poke(i, float(i))

        def body(ctx):
            for _ in range(iters):
                yield from ctx.compute_us(work_us)
                if n > 1:
                    yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
                yield from ctx.barrier()

        return body

    return factory


def translated(n, **kw):
    return translate(measure(simple_program(n, **kw), n, name="simple"))


def test_simulator_max_events_runaway_guard():
    tp = translated(4)
    sim = Simulator(tp, presets.distributed_memory(), max_events=50)
    with pytest.raises(RuntimeError, match="exceeded 50 events"):
        sim.run()


def test_simulator_converts_deadlock_to_stalled():
    """A trace whose replies can never arrive yields a diagnosis when
    the queue drains: stalled runs must name who is blocked."""
    from dataclasses import replace

    from repro.faults import FaultPlan

    tp = translated(2)
    plan = FaultPlan(
        seed=1,
        msg_loss_rate=1.0,
        loss_kinds=("request", "reply"),
        request_timeout=500.0,
        max_retries=1,
    )
    params = replace(presets.distributed_memory(), faults=plan)
    with pytest.raises(SimulationStalled) as exc_info:
        Simulator(tp, params).run()
    assert "the event queue drained with processors still blocked" in str(
        exc_info.value
    )
    assert exc_info.value.blocked
    assert isinstance(exc_info.value.blocked, tuple)
    assert isinstance(exc_info.value.pending_barriers, tuple)


def test_machine_deadlock_names_stuck_nodes():
    """One node skips the barrier: the reference machine reports which
    nodes never finished instead of spinning forever."""

    def factory(machine):
        def barrier_body(ctx):
            yield from ctx.compute(100.0)
            yield from ctx.barrier()

        def skip_body(ctx):
            yield from ctx.compute(100.0)

        return [barrier_body, skip_body]

    m = Machine(2)
    with pytest.raises(
        RuntimeError, match=r"^machine deadlocked; nodes \[0\] never finished$"
    ):
        m.run(factory)


def test_multithread_deadlock_names_stuck_threads():
    """Only thread 0 enters barrier 0: with both threads on one
    processor, the stall diagnosis names the thread that never finished.
    ``translate()`` refuses such a trace, so the translated program is
    built directly."""

    def thread(tid, *kinds):
        events = [TraceEvent(0.0, tid, EventKind.THREAD_BEGIN)]
        events += [TraceEvent(1.0, tid, k, barrier_id=0) for k in kinds]
        events.append(TraceEvent(2.0, tid, EventKind.THREAD_END))
        return ThreadTrace(tid, events)

    prog = TranslatedProgram(
        TraceMeta(program="partial", n_threads=2),
        [
            thread(0, EventKind.BARRIER_ENTER, EventKind.BARRIER_EXIT),
            thread(1),
        ],
    )
    sim = Simulator(prog, presets.by_name("cm5"), assignment=[0, 0])
    with pytest.raises(
        SimulationStalled,
        match=r"blocked processors \[proc 0: thread 0: parked at barrier 0 ",
    ):
        sim.run()


def test_remote_access_to_itself_raises_from_simulate():
    """A trace in which thread 0 reads an element it owns is a model
    error: ``simulate`` raises it as it is, not as a stall."""
    prog = TranslatedProgram(
        TraceMeta(program="self-read", n_threads=2),
        [
            ThreadTrace(0, [
                TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
                TraceEvent(1.0, 0, EventKind.REMOTE_READ, owner=0, nbytes=8),
                TraceEvent(2.0, 0, EventKind.THREAD_END),
            ]),
            ThreadTrace(1, [
                TraceEvent(0.0, 1, EventKind.THREAD_BEGIN),
                TraceEvent(2.0, 1, EventKind.THREAD_END),
            ]),
        ],
    )
    with pytest.raises(ValueError) as exc_info:
        simulate(prog, presets.distributed_memory())
    assert type(exc_info.value) is ValueError
    assert str(exc_info.value) == "thread 0: remote access to itself in the trace"


def test_stray_reply_raises_from_run():
    """A reply nobody asked for is a model error on an ideal machine:
    the receiving processor names it and the run raises it."""
    sim = Simulator(translated(2), presets.distributed_memory())
    sim.processors[1].deliver(Message(MsgKind.REPLY, 0, 1, 8, 999))
    with pytest.raises(RuntimeError) as exc_info:
        sim.run()
    assert type(exc_info.value) is RuntimeError
    assert str(exc_info.value) == (
        "processor 1: unexpected <Msg reply 0->1 8B id=999> "
        "(no pending request with that id)"
    )


def test_simulation_stalled_carries_structured_diagnosis():
    exc = SimulationStalled(
        "stalled",
        blocked=[(0, "why")],
        pending_barriers=[(3, "1/2 arrivals")],
    )
    assert exc.blocked == ((0, "why"),)
    assert exc.pending_barriers == ((3, "1/2 arrivals"),)
    assert isinstance(exc, RuntimeError)
