"""Event primitives: states and composition."""

import pytest

from repro.des import Environment, Event, FirstOf


def test_event_lifecycle():
    env = Environment()
    ev = Event(env)
    assert not ev.triggered
    with pytest.raises(RuntimeError):
        _ = ev.value
    ev.succeed("v")
    assert ev.triggered and not ev.processed
    env.run()
    assert ev.processed
    assert ev.value == "v"


def test_double_trigger_rejected():
    env = Environment()
    ev = Event(env)
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()


def test_unhandled_failure_surfaces():
    """An exception raised in a callback or a queued call propagates
    out of run."""

    def boom(_arg):
        raise ValueError("lost")

    env = Environment()
    env.timeout(1).callbacks.append(boom)
    with pytest.raises(ValueError, match="lost"):
        env.run()
    env.call_in(1, boom)
    with pytest.raises(ValueError, match="lost"):
        env.run()


def test_resolve_without_waiters_is_not_queued():
    env = Environment()
    ev = Event(env)
    ev.resolve("v")
    assert ev.processed and ev.value == "v"
    assert env.peek() == float("inf")
    with pytest.raises(RuntimeError):
        ev.resolve()


def test_resolve_with_a_waiter_is_succeed():
    env = Environment()
    ev = Event(env)
    got = []
    ev.callbacks.append(lambda e: got.append(e.value))
    ev.resolve("v")
    assert ev.triggered and not ev.processed
    env.run()
    assert got == ["v"]


def test_yielding_a_resolved_event_resumes_now():
    """A resolved event is already processed: a late waiter reads its
    value at once, since a callback appended now would never run."""
    env = Environment()
    ev = Event(env)
    ev.resolve(7)
    got = []
    late = []

    def step(_ev):
        ev.callbacks.append(late.append)
        if ev.processed:
            got.append((ev.value, env.now))

    env.timeout(3).callbacks.append(step)
    env.run()
    assert got == [(7, 3.0)]
    assert late == []


def test_firstof_fires_with_first_child_value():
    env = Environment()
    a, b = env.timeout(5, "a"), env.timeout(10, "b")
    first = FirstOf(env, (a, b))
    fired = []
    first.callbacks.append(lambda ev: fired.append(env.now))
    env.run()
    assert fired == [5.0]
    assert first.value == "a"


def test_firstof_detaches_from_losers():
    env = Environment()
    never = Event(env)
    for t in range(1, 4):
        FirstOf(env, (never, env.timeout(1, t)))
        env.run()
    # Each turn detached its callback from ``never`` when it fired.
    assert never.callbacks == []


def test_firstof_fires_one_hop_after_its_child():
    env = Environment()
    order = []
    a = Event(env)
    FirstOf(env, (a,)).callbacks.append(lambda ev: order.append("first"))
    a.callbacks.append(lambda ev: order.append("child"))
    a.succeed()
    env.timeout(0).callbacks.append(lambda ev: order.append("timeout"))
    env.run()
    # Scheduled from its child's callback, so after the timeout queued
    # before the child was processed.
    assert order == ["child", "timeout", "first"]


def test_firstof_with_processed_child_fires_at_once():
    env = Environment()
    a = env.timeout(1, "a")
    env.timeout(2)
    while env.peek() <= 2.0:
        env.step()
    first = FirstOf(env, (a, env.timeout(10)))
    assert first.triggered
    fired = []
    first.callbacks.append(lambda ev: fired.append(env.now))
    env.run()
    assert fired == [2.0] and first.value == "a"
