"""The DES engine: clock, ordering, the one run loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Event, StopSimulation, Store


def sleeper(env, delays, on_wake=lambda: None):
    """A callback chain started by ``call_first``: wait each of
    ``delays`` in turn and call ``on_wake()`` after each."""
    delays = iter(delays)

    def step(ev):
        if ev is not None:
            on_wake()
        delay = next(delays, None)
        if delay is not None:
            env.timeout(delay).callbacks.append(step)

    env.call_first(step)


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_initial_time():
    assert Environment(10.0).now == 10.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    sleeper(env, (5, 2.5), lambda: log.append(env.now))
    env.run()
    assert log == [5.0, 7.5]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_call_at_keys_the_exact_absolute_time():
    # 0.1 + 0.2 + 0.3 summed left to right, as a chain of timeouts would.
    env = Environment(0.1)
    when = 0.1 + 0.2 + 0.3
    chain_end = []
    called = []

    sleeper(env, (0.2, 0.3), lambda: chain_end.append(env.now))
    env.call_at(when, lambda value: called.append((value, env.now)), "v")
    env.run()
    assert called == [("v", when)]
    assert chain_end == [0.1 + 0.2, when]
    with pytest.raises(ValueError):
        env.call_at(env.now - 1.0, called.append)


def test_step_empty_queue():
    with pytest.raises(StopSimulation):
        Environment().step()


def test_fifo_order_at_same_time():
    env = Environment()
    log = []

    for tag in "abcd":
        sleeper(env, (10,), lambda tag=tag: log.append(tag))
    env.run()
    assert log == list("abcd")


def test_peek():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(4)
    assert env.peek() == 4.0


def test_processed_event_count():
    env = Environment()
    for _ in range(5):
        env.timeout(1)
    env.run()
    assert env.processed_event_count == 5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
def test_events_fire_in_time_order(delays):
    """Property: regardless of scheduling order, callbacks observe a
    non-decreasing clock."""
    env = Environment()
    seen = []
    for d in delays:
        env.timeout(d).callbacks.append(lambda ev: seen.append(env.now))
    env.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


def test_process_waits_on_process():
    """A callback chain waits on an event another chain succeeds, and
    reads its value."""
    env = Environment()
    inner = Event(env)
    env.timeout(7).callbacks.append(lambda ev: inner.succeed(42))
    outer = Event(env)
    inner.callbacks.append(lambda ev: outer.succeed(ev.value + 1))
    assert env.run() is True
    assert outer.processed and outer.value == 43
    assert env.now == 7.0


# -- same-time ordering contract (pinned before/after the fast path) -----


def test_same_time_priority_beats_fifo():
    """Lower priority fires first at equal times, regardless of when it
    was scheduled (the documented tie-break below FIFO): a
    ``call_first`` entry (priority -1) overtakes same-time events and
    calls (priority 0)."""
    env = Environment(5.0)
    log = []
    ev = Event(env)
    ev.callbacks.append(lambda _e: log.append("first-normal"))
    ev.succeed()
    env.call_in(0.0, log.append, "late-normal")
    env.call_first(log.append, "urgent")
    env.run()
    assert log == ["urgent", "first-normal", "late-normal"]


def test_same_time_fifo_within_priority():
    """Same-time entries of one priority fire in the order they were
    queued, events and calls alike."""
    env = Environment(1.0)
    log = []
    for i, tag in enumerate("abcdef"):
        if i % 2:
            env.call_in(0.0, log.append, tag)
        else:
            ev = Event(env)
            ev.callbacks.append(lambda _e, t=tag: log.append(t))
            ev.succeed()
    for tag in "xyz":
        env.call_first(log.append, tag)
    env.run()
    assert log == list("xyzabcdef")


def test_process_start_beats_same_time_events():
    """A component started by ``call_first`` (priority -1) takes its
    first step before ordinary events already queued for the same
    instant."""
    env = Environment()
    log = []
    env.timeout(0).callbacks.append(lambda ev: log.append("timeout"))
    env.call_first(log.append, "call_first")
    env.run()
    assert log == ["call_first", "timeout"]


def test_run_batched_matches_step_ordering():
    """run must process events in exactly step() order."""

    def build():
        env = Environment()
        log = []

        for i, d in enumerate([2.0, 1.0, 2.0, 3.0]):
            sleeper(env, (d,) * 3, lambda i=i: log.append((env.now, i)))
        return env, log

    env_a, log_a = build()
    while env_a._queue:
        env_a.step()
    env_b, log_b = build()
    env_b.run()
    assert log_a == log_b
    assert env_a.processed_event_count == env_b.processed_event_count


def test_run_batched_max_events_budget():
    env = Environment()
    for _ in range(10):
        env.timeout(1)
    assert env.run(max_events=4) is False
    assert env.processed_event_count == 4
    assert env.run() is True
    assert env.processed_event_count == 10


def test_profiling_counters():
    env = Environment()
    counters = env.enable_profiling()
    assert env.profile is counters

    sleeper(env, (1,) * 4)
    env.run()
    assert counters.events_total == env.processed_event_count
    assert counters.events_by_type["Timeout"] == 4
    assert counters.events_by_type["Call"] == 1
    assert counters.heap_peak >= 1
    assert counters.callbacks_fired >= 5


def _drain_chunks(env):
    while not env.run(max_events=4):
        pass


@pytest.mark.parametrize(
    "drain",
    [lambda env: env.run(), _drain_chunks],
    ids=["run-none", "run-batched-chunks"],
)
def test_profiled_run_identical_to_fast_path(drain):
    def run(profiled):
        env = Environment()
        counters = env.enable_profiling() if profiled else None
        log = []

        for t in range(3):
            sleeper(env, (1.0 + t / 4,) * 5, lambda t=t: log.append((env.now, t)))
        drain(env)
        if counters is not None:
            assert counters.events_total == env.processed_event_count
        return log, env.processed_event_count, env.now

    assert run(False) == run(True)


# -- oracle: generated schedules of events and calls ---------------------------

#: What a generated operation queues: a plain call, a timeout, a
#: zero-delay ``succeed``, a ``call_first`` (priority -1), or a store
#: put or get (an event getter or a call getter).
OP_KINDS = (
    "call_in", "call_at", "timeout", "succeed", "call_first",
    "put", "get", "get_then",
)
CALL_KINDS = ("call_in", "call_at", "call_first", "get_then")

_op = st.tuples(st.sampled_from(OP_KINDS), st.sampled_from((0.0, 0.5, 1.0, 2.5)))
#: Operations done before the run, each with the follow-ups its callback
#: does when it fires (same-time pushes mid-drain included).
_schedules = st.lists(
    st.tuples(_op, st.lists(_op, max_size=3)), min_size=1, max_size=25
)


def _run_schedule(schedule, drive, profiled):
    """Run ``schedule``; return the fired ops with their queue keys, the
    processed count and the counters (when ``profiled``).

    Every op that queues an entry is keyed by the ``(time, priority,
    seq)`` the entry took; a get that waits is keyed when a put serves
    it, in the FIFO order the store promises.  At each firing, the
    fired op's key must be the least of the entries then queued.
    """
    env = Environment()
    counters = env.enable_profiling() if profiled else None
    store = Store(env)
    keys = {}
    pending = set()
    waiting = []
    fired = []
    ids = iter(range(1 << 30))

    def queued(op_id, when, priority=0):
        keys[op_id] = (when, priority, env._seq)
        pending.add(keys[op_id])

    def start(kind, d, children=()):
        op_id = next(ids)

        def fire(_arg):
            key = keys[op_id]
            assert key == min(pending) and key[0] == env.now
            pending.remove(key)
            fired.append((key, kind))
            for child in children:
                start(*child)

        now = env.now
        if kind == "call_in":
            env.call_in(d, fire)
        elif kind == "call_at":
            env.call_at(now + d, fire)
        elif kind == "timeout":
            env.timeout(d).callbacks.append(fire)
        elif kind == "succeed":
            ev = Event(env)
            ev.callbacks.append(fire)
            ev.succeed()
            d = 0.0
        elif kind == "call_first":
            env.call_first(fire)
            queued(op_id, now, -1)
            return
        else:
            seq = env._seq
            if kind == "put":
                store.put_nowait(d)
                if env._seq != seq:
                    op_id = waiting.pop(0)
            elif kind == "get":
                store.get().callbacks.append(fire)
            else:
                store.get_then(fire)
            if env._seq == seq:
                if kind != "put":
                    waiting.append(op_id)
                return
            d = 0.0
        queued(op_id, now + d)

    for (kind, d), children in schedule:
        start(kind, d, children)
    drive(env)
    assert not pending
    return fired, env.processed_event_count, counters


def _step_all(env):
    while env.peek() < float("inf"):
        env.step()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_schedules)
def test_generated_schedules_fire_in_queue_key_order(schedule):
    """Oracle (c) on the engine: calls and events interleave in one
    ``(time, priority, seq)`` order, the same under ``run()`` and under
    repeated ``step()``, profiled or not."""
    ran, count, _ = _run_schedule(schedule, lambda env: env.run(), False)
    stepped, step_count, _ = _run_schedule(schedule, _step_all, False)
    profiled, prof_count, counters = _run_schedule(
        schedule, lambda env: env.run(), True
    )
    assert ran == stepped == profiled
    assert count == step_count == prof_count == len(ran)
    if not any(
        kind == "call_first" for _, children in schedule for kind, _ in children
    ):
        # Nothing queued mid-run can sort before the entry that queued
        # it, so the whole order is one sort of the keys.
        assert [key for key, _ in ran] == sorted(key for key, _ in ran)
    assert counters.events_total == prof_count
    calls = sum(kind in CALL_KINDS for _, kind in ran)
    assert counters.events_by_type.get("Call", 0) == calls
