"""Extended property-based tests across subsystems."""

from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.des import engine
from repro.faults.plan import FaultPlan
from repro.machine import MachineSpec, run_on_machine
from repro.pcxx import Collection, make_distribution
from repro.sim.simulator import Simulator, assign_threads, simulate
from tests.test_replay_golden import result_digest


def random_program(n, barriers, reads, work_seed):
    """A deterministic pseudo-random but extrapolatable program."""

    def factory(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=32)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            for b in range(barriers):
                w = ((ctx.tid * 37 + b * work_seed) % 13 + 1) * 20.0
                yield from ctx.compute_us(w)
                for r in range(reads):
                    if n > 1:
                        target = (ctx.tid + r + b + 1) % n
                        if target != ctx.tid:
                            yield from ctx.get(coll, target, nbytes=8)
                yield from ctx.barrier()

        return body

    return factory


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(2, 8),
    barriers=st.integers(1, 4),
    reads=st.integers(0, 3),
    seed=st.integers(0, 100),
    m=st.integers(1, 8),
    scheme=st.sampled_from(["block", "cyclic"]),
    preset=st.sampled_from(["distributed_memory", "shared_memory", "cm5"]),
    policy=st.sampled_from(["no_interrupt", "interrupt", "poll"]),
    algorithm=st.sampled_from(["linear", "log", "hardware"]),
)
def test_multithread_invariants(
    n, barriers, reads, seed, m, scheme, preset, policy, algorithm
):
    """For any program, any m <= n, preset, service policy and barrier
    algorithm:

    * the run terminates with all threads finished;
    * execution time is at least the longest thread's scaled compute;
    * total served+local requests equals total issued reads;
    * every processor's busy time and waits fit in its lifetime.
    """
    if m > n:
        m = n
    tp = translate(measure(random_program(n, barriers, reads, seed), n, name="r"))
    params = presets.by_name(preset).with_(
        processor={"policy": policy}, barrier={"algorithm": algorithm}
    )
    res = simulate(tp, params, assignment=assign_threads(n, m, scheme))
    thread_end_times = [tt.end_time for tt in res.threads]
    assert len(thread_end_times) == n
    assert len(res.processors) == m
    assert res.execution_time == max(thread_end_times)
    per_thread_compute = [sum(tt.compute_deltas()) for tt in tp.threads]
    mips_ratio = params.processor.mips_ratio
    assert res.execution_time >= max(per_thread_compute) * mips_ratio - 1e-6
    issued = sum(
        1
        for tt in tp.threads
        for e in tt.events
        if e.kind.name in ("REMOTE_READ", "REMOTE_WRITE")
    )
    handled = sum(p.requests_served for p in res.processors)
    handled += res.local_accesses()
    assert handled == issued
    for p in res.processors:
        assert p.busy_total + p.comm_wait + p.barrier_wait <= p.end_time + 1e-6


def _recorded_pops(run):
    """``run()``'s result and the ``(time, priority, seq, call, argument
    type)`` of every queue entry the engine popped while it ran (for an
    event's processing the argument is the event)."""
    pops = []
    heappop = engine.heappop

    def recording_heappop(queue):
        entry = heappop(queue)
        _t, _priority, _seq, fn, arg = entry
        pops.append(
            entry[:3]
            + (getattr(fn, "__qualname__", type(fn).__name__), type(arg).__name__)
        )
        return entry

    engine.heappop = recording_heappop
    try:
        result = run()
    finally:
        engine.heappop = heappop
    return result, pops


def _stepped(sim: Simulator):
    """Run ``sim`` as :meth:`Simulator.run` does, every event through
    ``Environment.step()`` instead of the inlined ``_drain`` loop."""
    env = sim.env
    sim._ran = True
    sim._spawn()
    while env.peek() < inf:
        env.step()
    return sim._collect()


#: A retry plan whose 200 us timeout also expires on slow replies.
RETRY_PLAN = FaultPlan(seed=3, msg_loss_rate=0.1, request_timeout=200.0, max_retries=8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 6),
    barriers=st.integers(1, 3),
    reads=st.integers(0, 2),
    seed=st.integers(0, 100),
    m=st.integers(1, 6),
    scheme=st.sampled_from(["block", "cyclic"]),
    preset=st.sampled_from(["distributed_memory", "shared_memory", "cm5"]),
    policy=st.sampled_from(["no_interrupt", "interrupt", "poll"]),
    algorithm=st.sampled_from(["linear", "log", "hardware"]),
    faults=st.booleans(),
)
def test_step_replay_pops_the_drain_order(
    n, barriers, reads, seed, m, scheme, preset, policy, algorithm,
    faults,
):
    """Oracle (c): a replay driven by repeated ``Environment.step()`` pops
    the same ``(time, priority, seq, call, argument type)`` sequence as
    ``Simulator.run()`` (``_drain``), to the same result and event count."""
    m = min(m, n)
    tp = translate(measure(random_program(n, barriers, reads, seed), n, name="r"))
    params = presets.by_name(preset).with_(
        processor={"policy": policy}, barrier={"algorithm": algorithm}
    )
    if faults:
        params = params.with_faults(RETRY_PLAN)
    assignment = assign_threads(n, m, scheme)
    drained = Simulator(tp, params, assignment=assignment)
    stepped = Simulator(tp, params, assignment=assignment)
    res_drained, pops_drained = _recorded_pops(drained.run)
    res_stepped, pops_stepped = _recorded_pops(lambda: _stepped(stepped))
    assert pops_stepped == pops_drained
    assert result_digest(res_stepped) == result_digest(res_drained)
    assert (
        stepped.env.processed_event_count
        == drained.env.processed_event_count
        == len(pops_drained)
    )


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 8),
    barriers=st.integers(1, 3),
    seed=st.integers(0, 100),
)
def test_single_thread_model_vs_ideal_bound(n, barriers, seed):
    """Ideal-environment simulation equals translation's ideal time for
    arbitrary programs (the pipeline's central consistency invariant)."""
    tp = translate(measure(random_program(n, barriers, 1, seed), n, name="r"))
    res = simulate(tp, presets.ideal())
    assert res.execution_time == pytest.approx(tp.ideal_execution_time())


@settings(max_examples=10, deadline=None)
@given(
    byte_time=st.floats(min_value=0.001, max_value=0.5),
    startup=st.floats(min_value=0.0, max_value=100.0),
    service=st.floats(min_value=0.0, max_value=20.0),
)
def test_machine_time_monotone_in_costs(byte_time, startup, service):
    """The reference machine's time never decreases when any cost grows."""
    base = MachineSpec()
    slower = MachineSpec(
        byte_time=base.byte_time + byte_time,
        msg_startup=base.msg_startup + startup,
        service_time=base.service_time + service,
    )
    prog = random_program(4, 2, 2, 7)
    t_base = run_on_machine(prog, 4, spec=base, name="r").execution_time
    t_slow = run_on_machine(prog, 4, spec=slower, name="r").execution_time
    assert t_slow >= t_base - 1e-6


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 64), m=st.integers(1, 64), scheme=st.sampled_from(["block", "cyclic"]))
def test_assignment_is_total_and_balanced(n, m, scheme):
    if m > n:
        with pytest.raises(ValueError):
            assign_threads(n, m, scheme)
        return
    a = assign_threads(n, m, scheme)
    assert len(a) == n
    assert set(a) <= set(range(m))
    counts = [a.count(p) for p in range(m)]
    assert min(counts) >= 1  # every processor used
    assert max(counts) - min(counts) <= 1
