"""One-slot resources: FIFO grants and queue accounting."""

import pytest

from repro.des import Environment, Resource


def test_capacity_one_serialises():
    env = Environment()
    res = Resource(env)
    log = []

    def user(env, tag, hold):
        req = res.request()
        yield req
        log.append((tag, "in", env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append((tag, "out", env.now))

    env.process(user(env, "a", 10))
    env.process(user(env, "b", 5))
    env.run(None)
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 10.0),
        ("b", "in", 10.0),
        ("b", "out", 15.0),
    ]


def test_release_without_hold_rejected():
    env = Environment()
    res = Resource(env)
    a = res.request()
    res.release(a)
    with pytest.raises(ValueError):
        res.release(a)


def test_queue_length_and_count():
    env = Environment()
    res = Resource(env)
    a = res.request()
    res.request()
    assert res.count == 1
    assert res.queue_length == 1
    res.release(a)
    assert res.count == 1
    assert res.queue_length == 0
