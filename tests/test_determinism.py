"""Determinism guarantees: identical inputs -> identical outputs.

Extrapolation is only useful for comparative studies if reruns are
bit-stable; these tests pin that down for every stage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.machine import run_on_machine
from repro.pcxx import Collection, make_distribution
from repro.sim.simulator import assign_threads, simulate


def program(rt):
    n = rt.n_threads
    coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
    for i in range(n):
        coll.poke(i, i)

    def body(ctx):
        for it in range(3):
            yield from ctx.compute_us(100.0 * ((ctx.tid + it) % 3 + 1))
            yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
            yield from ctx.barrier()

    return body


def test_measurement_bit_stable():
    a = measure(program, 8, name="d")
    b = measure(program, 8, name="d")
    assert a.events == b.events


def test_translation_bit_stable():
    trace = measure(program, 8, name="d")
    ta, tb = translate(trace), translate(trace)
    for x, y in zip(ta.threads, tb.threads):
        assert x.events == y.events
    assert ta.barrier_exit_times == tb.barrier_exit_times


@pytest.mark.parametrize("policy", ["no_interrupt", "interrupt", "poll"])
def test_simulation_bit_stable(policy):
    tp = translate(measure(program, 8, name="d"))
    params = presets.distributed_memory().with_(processor={"policy": policy})
    ra = simulate(tp, params)
    rb = simulate(tp, params)
    assert ra.execution_time == rb.execution_time
    for x, y in zip(ra.threads, rb.threads):
        assert x.events == y.events
    assert ra.network.messages == rb.network.messages


def test_reference_run_pinned():
    """Absolute regression pin for the seeded reference run.

    The predicted time and message totals pin behaviour: they are the
    values the pre-fast-path engine produced, and a change to them means
    the engine changed what gets simulated.  The event count pins how
    many events the engine *schedules* for this run; it drops when a
    change stops queueing events nobody waits on or folds fixed-latency
    busy chains into one event (474 since the run stopped queueing a
    done event per processor and a sentinel over them; 483 since an
    interrupting request's interrupt overhead and service are one
    event; 485 before that, once
    reply, barrier-completion and inbox-put events stopped being queued;
    623 before).  Event order itself is pinned by
    tests/test_replay_golden.py.
    """
    from repro.sim.simulator import Simulator

    tp = translate(measure(program, 8, name="d"))
    sim = Simulator(tp, presets.distributed_memory())
    res = sim.run()
    assert sim.env.processed_event_count == 474
    assert res.execution_time == pytest.approx(1956.6999999999998, abs=1e-9)
    assert res.network.messages == 90
    assert res.network.bytes == 7296


def test_profiled_run_matches_reference():
    """profile=True must not perturb the simulation itself."""
    from repro.sim.simulator import Simulator

    tp = translate(measure(program, 8, name="d"))
    sim = Simulator(tp, presets.distributed_memory(), profile=True)
    res = sim.run()
    assert sim.env.processed_event_count == 474
    assert res.execution_time == pytest.approx(1956.6999999999998, abs=1e-9)
    assert res.profile is not None
    assert res.profile.counters.events_total == 474
    assert res.profile.counters.heap_peak >= 8
    assert set(res.profile.timers.phases) == {"spawn", "replay", "collect"}


def test_machine_bit_stable():
    ra = run_on_machine(program, 4, name="d")
    rb = run_on_machine(program, 4, name="d")
    assert ra.execution_time == rb.execution_time
    assert ra.messages == rb.messages


def test_multithread_bit_stable():
    tp = translate(measure(program, 8, name="d"))
    params = presets.distributed_memory()
    ra = simulate(tp, params, assignment=assign_threads(8, 4))
    rb = simulate(tp, params, assignment=assign_threads(8, 4))
    assert ra.execution_time == rb.execution_time
    assert [tt.events for tt in ra.threads] == [tt.events for tt in rb.threads]


@settings(max_examples=30, deadline=None)
@given(
    mips=st.floats(min_value=0.1, max_value=4.0),
    startup=st.floats(min_value=0.0, max_value=500.0),
    byte_time=st.floats(min_value=0.0, max_value=1.0),
    algorithm=st.sampled_from(["linear", "log", "hardware"]),
    by_msgs=st.booleans(),
    policy=st.sampled_from(["no_interrupt", "interrupt", "poll"]),
    poll_interval=st.floats(min_value=1.0, max_value=2000.0),
    topology=st.sampled_from(
        ["crossbar", "bus", "ring", "mesh2d", "torus2d", "hypercube", "fattree"]
    ),
)
def test_simulation_invariants_over_parameters(
    mips, startup, byte_time, algorithm, by_msgs, policy, poll_interval, topology
):
    """Properties that must hold for ANY parameter combination:

    * the simulation terminates;
    * predicted time >= MipsRatio-scaled ideal time;
    * all barrier episodes complete;
    * no thread exits a barrier before the last one entered it.
    """
    tp = translate(measure(program, 4, name="d"))
    params = presets.distributed_memory().with_(
        processor={
            "mips_ratio": mips,
            "policy": policy,
            "poll_interval": poll_interval,
        },
        network={
            "comm_startup_time": startup,
            "byte_transfer_time": byte_time,
            "topology": topology,
        },
        barrier={"algorithm": algorithm, "by_msgs": by_msgs},
    )
    res = simulate(tp, params)
    assert res.barrier_count == 3
    assert res.execution_time >= mips * tp.ideal_execution_time() - 1e-6
    from repro.trace.events import EventKind

    enters: dict = {}
    exits: dict = {}
    for tt in res.threads:
        for e in tt.events:
            if e.kind == EventKind.BARRIER_ENTER:
                enters.setdefault(e.barrier_id, []).append(e.time)
            elif e.kind == EventKind.BARRIER_EXIT:
                exits.setdefault(e.barrier_id, []).append(e.time)
    for bid, entry_times in enters.items():
        assert len(entry_times) == 4
        assert min(exits[bid]) >= max(entry_times) - 1e-9
