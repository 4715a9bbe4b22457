"""Processor model specifics: policy timing, serving while waiting."""

import pytest

from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.pcxx import Collection, make_distribution
from repro.sim.simulator import simulate


def two_phase_program(n=2, owner_work=2000.0):
    """Thread 1 computes long; thread 0 immediately reads from thread 1.

    Thread 0's read lands while thread 1 is mid-compute, making the reply
    latency depend purely on thread 1's service policy.
    """

    def factory(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            if ctx.tid == 0:
                yield from ctx.compute_us(10.0)
                yield from ctx.get(coll, 1, nbytes=8)
            else:
                yield from ctx.compute_us(owner_work)
            yield from ctx.barrier()

        return body

    return factory


def run_policy(policy, poll_interval=100.0, owner_work=2000.0):
    tp = translate(measure(two_phase_program(owner_work=owner_work), 2, name="p"))
    params = presets.distributed_memory().with_(
        processor={"policy": policy, "poll_interval": poll_interval}
    )
    return simulate(tp, params)


def reply_wait(res):
    return res.processors[0].comm_wait


def test_no_interrupt_waits_out_the_owner_compute():
    res = run_policy("no_interrupt")
    # The reply comes only when thread 1 reaches the barrier (~2000us in).
    assert reply_wait(res) > 1500.0


def test_interrupt_replies_quickly():
    res = run_policy("interrupt")
    assert reply_wait(res) < 500.0
    assert res.processors[1].interrupts >= 1


def test_poll_bounded_by_interval():
    fast = run_policy("poll", poll_interval=50.0)
    slow = run_policy("poll", poll_interval=1000.0)
    assert reply_wait(fast) < reply_wait(slow)
    assert fast.processors[1].polls > slow.processors[1].polls


def test_poll_overhead_accumulates():
    res = run_policy("poll", poll_interval=50.0)
    p1 = res.processors[1]
    assert p1.categories["poll_overhead"] == pytest.approx(
        p1.polls * presets.distributed_memory().processor.poll_overhead
    )


def test_interrupt_overhead_charged():
    res = run_policy("interrupt")
    p1 = res.processors[1]
    assert p1.categories["interrupt_overhead"] == pytest.approx(
        p1.interrupts * presets.distributed_memory().processor.interrupt_overhead
    )


def test_interrupted_compute_duration_preserved():
    """Interrupts delay but never shorten the computation itself."""
    res = run_policy("interrupt")
    p1 = res.processors[1]
    # mips_ratio 1.0: the full 2000us of compute must be accounted.
    assert p1.categories["compute"] == pytest.approx(2000.0, rel=1e-6)


def test_requests_served_while_waiting_at_barrier():
    """An early-finishing processor still answers requests (the paper's
    requirement that remote accesses are serviced at barriers)."""

    def factory(rt):
        n = 2
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            if ctx.tid == 0:
                yield from ctx.barrier()  # waits at the barrier immediately
            else:
                yield from ctx.compute_us(500.0)
                yield from ctx.get(coll, 0, nbytes=8)  # owner is at barrier
                yield from ctx.barrier()

        return body

    tp = translate(measure(factory, 2, name="w"))
    params = presets.distributed_memory().with_(
        processor={"policy": "no_interrupt"}
    )
    res = simulate(tp, params)
    assert res.processors[0].requests_served == 1
    # The reply must have come long before thread 1's barrier wait ended.
    assert res.processors[1].comm_wait < 400.0


def test_finished_processor_keeps_serving():
    """Thread 0 finishes instantly but must still answer thread 1."""

    def factory(rt):
        n = 2
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            if ctx.tid == 1:
                yield from ctx.compute_us(1000.0)
                yield from ctx.get(coll, 0, nbytes=8)
            # note: no barrier — thread 0 ends immediately.

        return body

    tp = translate(measure(factory, 2, name="f"))
    res = simulate(tp, presets.distributed_memory())
    assert res.processors[0].requests_served == 1
    assert res.processors[1].remote_accesses == 1


# -- replay-path event cuts -------------------------------------------------------


def one_read_program(n=2):
    """Thread 0 reads one element from thread 1; both then barrier."""

    def factory(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            if ctx.tid == 0:
                yield from ctx.get(coll, 1, nbytes=8)
            yield from ctx.barrier()

        return body

    return factory


def test_delivered_message_schedules_no_put_event():
    from repro.sim.messages import Message, MsgKind
    from repro.sim.simulator import Simulator

    tp = translate(measure(one_read_program(), 2, name="d"))
    sim = Simulator(tp, presets.distributed_memory())
    counters = sim.env.enable_profiling()
    msg = Message(MsgKind.REQUEST, src=0, dst=1, msg_id=99)
    sim.processors[1].deliver(msg)
    assert sim.processors[1].inbox.items == [msg]
    assert counters.scheduled_total == 0
    assert sim.env.peek() == float("inf")


def test_remote_access_completes_without_a_scheduled_reply_event(monkeypatch):
    from repro.des import Environment, Event
    from repro.sim.messages import MsgKind

    scheduled, resolved = [], []
    call_in, resolve = Environment.call_in, Event.resolve

    def spy_call_in(self, delay, fn, arg=None):
        scheduled.append(arg)
        call_in(self, delay, fn, arg)

    def spy_resolve(self, value=None):
        resolved.append(self)
        return resolve(self, value)

    monkeypatch.setattr(Environment, "call_in", spy_call_in)
    monkeypatch.setattr(Event, "resolve", spy_resolve)
    tp = translate(measure(one_read_program(), 2, name="d"))
    res = simulate(tp, presets.distributed_memory())
    assert res.processors[0].remote_accesses == 1
    replies = [
        ev for ev in resolved if getattr(ev.value, "kind", None) is MsgKind.REPLY
    ]
    assert len(replies) == 1
    assert replies[0].processed
    assert not any(ev is replies[0] for ev in scheduled)


@pytest.mark.parametrize("preset", ["distributed_memory", "shared_memory"])
def test_late_duplicate_replies_still_counted(preset):
    from dataclasses import replace

    from repro.faults import FaultPlan

    tp = translate(measure(one_read_program(), 2, name="d"))
    params = replace(
        presets.by_name(preset), faults=FaultPlan(seed=5, msg_dup_rate=1.0)
    )
    res = simulate(tp, params)
    p0 = res.processors[0]
    # The duplicated request is served twice and each reply is duplicated:
    # four copies reach thread 0, one completes the access, three are late.
    assert p0.remote_accesses == 1
    assert p0.late_replies == 3


def early_barrier_program(n=3, reads=4):
    """Thread 1 waits at the barrier while the others read from it."""

    def factory(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            if ctx.tid != 1:
                yield from ctx.compute_us(50.0)
                for _ in range(reads):
                    yield from ctx.get(coll, 1, nbytes=8)
            yield from ctx.barrier()

        return body

    return factory


@pytest.mark.parametrize("algorithm", ["linear", "hardware"])
def test_barrier_wait_leaves_no_callbacks_on_its_target(algorithm):
    from repro.sim.simulator import Simulator

    n, reads = 3, 4
    tp = translate(measure(early_barrier_program(n, reads), n, name="b"))
    params = presets.shared_memory().with_(barrier={"algorithm": algorithm})
    assert not params.barrier.by_msgs  # flag/hardware: an external wait
    sim = Simulator(tp, params)
    sim._spawn()
    env, most = sim.env, 0
    while env.peek() != float("inf"):
        env.step()
        for ep in sim.coordinator._episodes.values():
            most = max(most, len(ep.released.callbacks))
    # Thread 1 serviced every read while waiting on the release, yet the
    # release never held more than one callback per waiting processor.
    assert sim.processors[1].stats.requests_served == (n - 1) * reads
    assert 1 <= most <= n
