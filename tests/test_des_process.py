"""Processes: return values, waiting, error handling."""

import pytest

from repro.des import Environment


def test_exception_in_process_fails_waiters():
    env = Environment()

    def worker(env):
        yield env.timeout(1)
        raise ValueError("inside")

    def waiter(env, w):
        try:
            yield w
        except ValueError as e:
            return f"saw {e}"

    w = env.process(worker(env))
    p = env.process(waiter(env, w))
    assert env.run(p) == "saw inside"


def test_yielding_non_event_fails_process():
    env = Environment()

    def worker(env):
        yield "not an event"

    w = env.process(worker(env))
    with pytest.raises(RuntimeError, match="expected an Event"):
        env.run(w)


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_return_value():
    env = Environment()

    def worker(env):
        yield env.timeout(2)
        return {"answer": 42}

    assert env.run(env.process(worker(env))) == {"answer": 42}


def test_waiting_on_already_processed_event():
    env = Environment()
    ev = env.timeout(1, "early")
    env.run(until=5.0)
    assert ev.processed

    def late(env):
        v = yield ev
        return v

    assert env.run(env.process(late(env))) == "early"
