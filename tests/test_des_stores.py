"""Stores: FIFO semantics, put_nowait, cancel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store


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


def test_pending_gets_count():
    env = Environment()
    store = Store(env)
    store.get()
    store.get()
    assert store.pending_gets == 2


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
