"""Stores: FIFO semantics, capacity, filtering, priorities, cancel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, FilterStore, PriorityItem, PriorityStore, Store


def run_all(env):
    env.run(None)


def test_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(consumer(env))
    for i in range(3):
        store.put(i)
    run_all(env)
    assert got == [0, 1, 2]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(10)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    run_all(env)
    assert got == [(10.0, "x")]


def test_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    done = []

    def producer(env):
        yield store.put("a")
        done.append(("a", env.now))
        yield store.put("b")
        done.append(("b", env.now))

    def consumer(env):
        yield env.timeout(5)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    run_all(env)
    assert done == [("a", 0.0), ("b", 5.0)]


def test_bad_capacity():
    with pytest.raises(ValueError):
        Store(Environment(), capacity=0)


def test_cancel_get():
    env = Environment()
    store = Store(env)
    g1 = store.get()
    g2 = store.get()
    store.cancel(g1)
    store.put("only")
    env.run(None)
    assert not g1.triggered
    assert g2.value == "only"
    store.cancel(g1)  # idempotent


def test_put_nowait_schedules_no_put_event():
    env = Environment()
    store = Store(env)
    store.put_nowait("a")
    assert store.items == ["a"]
    assert env.peek() == float("inf")


def test_put_nowait_serves_a_waiting_getter_like_put():
    env = Environment()
    got = []
    stores = [Store(env), Store(env)]
    gets = [s.get() for s in stores]
    for g, tag in zip(gets, ("nowait", "put")):
        g.callbacks.append(lambda ev, tag=tag: got.append((tag, ev.value)))
    stores[0].put_nowait(1)
    stores[1].put(2)
    env.run(None)
    # Same getter service; only the put path queued a put event too.
    assert got == [("nowait", 1), ("put", 2)]
    assert env.processed_event_count == 3


def test_put_nowait_refuses_a_full_store():
    env = Environment()
    store = Store(env, capacity=1)
    store.put_nowait("a")
    with pytest.raises(RuntimeError, match="full"):
        store.put_nowait("b")


def test_pending_gets_count():
    env = Environment()
    store = Store(env)
    store.get()
    store.get()
    assert store.pending_gets == 2


def test_filter_store():
    env = Environment()
    store = FilterStore(env)
    for item in ("apple", "banana", "avocado"):
        store.put(item)
    got = []

    def consumer(env):
        x = yield store.get(lambda s: s.startswith("b"))
        got.append(x)
        y = yield store.get()
        got.append(y)

    env.process(consumer(env))
    run_all(env)
    assert got == ["banana", "apple"]


def test_filter_store_waits_for_match():
    env = Environment()
    store = FilterStore(env)
    store.put(1)
    got = []

    def consumer(env):
        x = yield store.get(lambda v: v > 10)
        got.append((env.now, x))

    def producer(env):
        yield env.timeout(5)
        yield store.put(99)

    env.process(consumer(env))
    env.process(producer(env))
    run_all(env)
    assert got == [(5.0, 99)]
    assert store.items == [1]


def test_none_is_a_valid_item():
    """Regression: a stored None must not be mistaken for 'no item'."""
    env = Environment()
    store = Store(env)
    store.put(None)
    got = []

    def consumer(env):
        got.append((yield store.get()))

    env.process(consumer(env))
    env.run(None)
    assert got == [None]


def test_priority_store():
    env = Environment()
    store = PriorityStore(env)
    for p in (5, 1, 3):
        store.put(PriorityItem(p, f"item{p}"))
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item.priority)

    env.process(consumer(env))
    run_all(env)
    assert got == [1, 3, 5]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_store_preserves_all_items(items):
    """Property: everything put is got exactly once, in order."""
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in items:
            got.append((yield store.get()))

    env.process(consumer(env))

    def producer(env):
        for it in items:
            yield env.timeout(1)
            yield store.put(it)

    env.process(producer(env))
    env.run(None)
    assert got == items
