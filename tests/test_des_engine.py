"""The DES engine: clock, ordering, run modes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Deadlock, Environment, StopSimulation


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_initial_time():
    assert Environment(10.0).now == 10.0


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5)
        log.append(env.now)
        yield env.timeout(2.5)
        log.append(env.now)

    env.process(proc(env))
    env.run(None)
    assert log == [5.0, 7.5]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "answer"

    p = env.process(proc(env))
    assert env.run(p) == "answer"
    assert env.now == 3.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_deadlock_detected():
    env = Environment()

    def proc(env):
        yield env.event()  # never fires

    p = env.process(proc(env))
    with pytest.raises(RuntimeError, match="deadlock"):
        env.run(p)


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_at_keys_the_exact_absolute_time():
    # 0.1 + 0.2 + 0.3 summed left to right, as a chain of timeouts would.
    env = Environment(0.1)
    when = 0.1 + 0.2 + 0.3
    chain_end = []

    def chain(env):
        yield env.timeout(0.2)
        yield env.timeout(0.3)
        chain_end.append(env.now)

    env.process(chain(env))
    ev = env.timeout_at(when, value="v")
    assert env.run(ev) == "v"
    assert env.now == when
    env.run(None)
    assert chain_end == [when]
    with pytest.raises(ValueError):
        env.timeout_at(env.now - 1.0)


def test_step_empty_queue():
    with pytest.raises(StopSimulation):
        Environment().step()


def test_fifo_order_at_same_time():
    env = Environment()
    log = []

    def proc(env, tag):
        yield env.timeout(10)
        log.append(tag)

    for tag in "abcd":
        env.process(proc(env, tag))
    env.run(None)
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
    env.run(None)
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
    env.run(None)
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


def test_process_waits_on_process():
    env = Environment()

    def inner(env):
        yield env.timeout(7)
        return 42

    def outer(env):
        value = yield env.process(inner(env))
        return value + 1

    assert env.run(env.process(outer(env))) == 43


# -- same-time ordering contract (pinned before/after the fast path) -----


def test_same_time_priority_beats_fifo():
    """Lower priority fires first at equal times, regardless of when it
    was scheduled (the documented tie-break below FIFO)."""
    env = Environment()
    log = []
    for tag, prio in [("late-low", 1), ("first-normal", 0), ("urgent", -1)]:
        ev = env.event()
        ev.callbacks.append(lambda _e, t=tag: log.append(t))
        env._schedule(ev, 5.0, priority=prio)
        ev._state = 1  # TRIGGERED (scheduled directly, not via succeed)
    env.run(None)
    assert log == ["urgent", "first-normal", "late-low"]


def test_same_time_fifo_within_priority():
    env = Environment()
    log = []
    for tag in "abcdef":
        ev = env.event()
        ev.callbacks.append(lambda _e, t=tag: log.append(t))
        env._schedule(ev, 1.0, priority=0)
        ev._state = 1
    env.run(None)
    assert log == list("abcdef")


def test_process_start_beats_same_time_events():
    """A freshly spawned process (priority -1) takes its first step before
    ordinary events already queued for the same instant."""
    env = Environment()
    log = []
    env.timeout(0).callbacks.append(lambda ev: log.append("timeout"))

    def body(env):
        log.append("process")
        yield env.timeout(1)

    env.process(body(env))
    env.run(None)
    assert log == ["process", "timeout"]


def test_run_batched_matches_step_ordering():
    """run_batched must process events in exactly step() order."""

    def build():
        env = Environment()
        log = []

        def worker(env, tag, delay):
            for _ in range(3):
                yield env.timeout(delay)
                log.append((env.now, tag))

        for i, d in enumerate([2.0, 1.0, 2.0, 3.0]):
            env.process(worker(env, i, d))
        return env, log

    env_a, log_a = build()
    while env_a._queue:
        env_a.step()
    env_b, log_b = build()
    env_b.run_batched()
    assert log_a == log_b
    assert env_a.processed_event_count == env_b.processed_event_count


def test_run_batched_max_events_budget():
    env = Environment()
    for _ in range(10):
        env.timeout(1)
    assert env.run_batched(max_events=4) is False
    assert env.processed_event_count == 4
    assert env.run_batched() is True
    assert env.processed_event_count == 10


def test_run_batched_until_event():
    env = Environment()
    first = env.timeout(1)
    target = env.timeout(5)
    env.timeout(9)
    assert env.run_batched(target) is True
    assert target.processed and env.now == 5.0
    assert first.processed
    assert env.processed_event_count == 2


def test_run_batched_deadlock():
    env = Environment()
    pending = env.event()  # never fires
    env.timeout(1)
    with pytest.raises(Deadlock, match="deadlock"):
        env.run_batched(pending)


def test_run_until_event_leaves_no_stale_callback():
    """run(until=event) must detach its internal waiter on every exit
    path, so the sentinel can be inspected or awaited again."""
    env = Environment()
    ev = env.timeout(3, value="v")
    assert env.run(ev) == "v"
    assert ev.callbacks == []
    # Running to the same (already processed) event again is a no-op.
    assert env.run(ev) == "v"

    # The deadlock path must also clean up after itself.
    pending = env.event()
    with pytest.raises(RuntimeError, match="deadlock"):
        env.run(pending)
    assert pending.callbacks == []
    # ... and the event is still usable afterwards.
    def trigger(env):
        yield env.timeout(2)
        pending.succeed("late")

    env.process(trigger(env))
    assert env.run(pending) == "late"


def test_run_until_failed_event_raises_once_detached():
    env = Environment()
    boom = env.event()
    boom.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        env.run(boom)
    assert boom.callbacks == []


def test_profiling_counters():
    env = Environment()
    counters = env.enable_profiling()
    assert env.profile is counters

    def worker(env):
        for _ in range(4):
            yield env.timeout(1)

    env.process(worker(env))
    env.run(None)
    assert counters.events_total == env.processed_event_count
    assert counters.events_by_type["Timeout"] == 4
    assert counters.events_by_type["Initialize"] == 1
    assert counters.heap_peak >= 1
    assert counters.callbacks_fired >= 5


def _drain_chunks(env, _procs):
    while not env.run_batched(max_events=4):
        pass


@pytest.mark.parametrize(
    "drain",
    [
        lambda env, procs: env.run(None),
        lambda env, procs: env.run(3.5),
        lambda env, procs: env.run(procs[1]),
        _drain_chunks,
    ],
    ids=["run-none", "run-time", "run-event", "run-batched-chunks"],
)
def test_profiled_run_identical_to_fast_path(drain):
    def run(profiled):
        env = Environment()
        counters = env.enable_profiling() if profiled else None
        log = []

        def worker(env, tag):
            for _ in range(5):
                yield env.timeout(1.0 + tag / 4)
                log.append((env.now, tag))

        procs = [env.process(worker(env, t)) for t in range(3)]
        drain(env, procs)
        if counters is not None:
            assert counters.events_total == env.processed_event_count
        return log, env.processed_event_count, env.now

    assert run(False) == run(True)
