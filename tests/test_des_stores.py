"""Stores: FIFO semantics, put_nowait, cancel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store


def consume(store, n, on_item):
    """A callback chain taking ``n`` items from ``store`` in turn."""
    left = n

    def got(ev):
        nonlocal left
        on_item(ev.value)
        left -= 1
        if left:
            store.get().callbacks.append(got)

    store.get().callbacks.append(got)


def test_fifo_order():
    env = Environment()
    store = Store(env)
    got = []
    consume(store, 3, got.append)
    for i in range(3):
        store.put_nowait(i)
    env.run()
    assert got == [0, 1, 2]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []
    consume(store, 1, lambda item: got.append((env.now, item)))
    env.timeout(10).callbacks.append(lambda ev: store.put_nowait("x"))
    env.run()
    assert got == [(10.0, "x")]


def test_cancel_get():
    env = Environment()
    store = Store(env)
    g1 = store.get()
    g2 = store.get()
    store.cancel(g1)
    store.put_nowait("only")
    env.run()
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
    """Waiting getters are served in FIFO order, each through one queue
    hop of its own get event."""
    env = Environment()
    store = Store(env)
    got = []
    gets = [store.get(), store.get()]
    for g, tag in zip(gets, "ab"):
        g.callbacks.append(lambda ev, tag=tag: got.append((tag, ev.value)))
    store.put_nowait(1)
    store.put_nowait(2)
    assert store.items == []
    assert all(g.triggered and not g.processed for g in gets)
    env.run()
    assert got == [("a", 1), ("b", 2)]
    assert env.processed_event_count == 2


def test_pending_gets_count():
    """Gets on an empty store wait without queueing anything."""
    env = Environment()
    store = Store(env)
    gets = [store.get(), store.get()]
    assert len(store) == 0
    assert not any(g.triggered for g in gets)
    assert env.peek() == float("inf")


def test_none_is_a_valid_item():
    """Regression: a stored None must not be mistaken for 'no item'."""
    env = Environment()
    store = Store(env)
    store.put_nowait(None)
    got = []
    consume(store, 1, got.append)
    env.run()
    assert got == [None]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_store_preserves_all_items(items):
    """Property: everything put is got exactly once, in order."""
    env = Environment()
    store = Store(env)
    got = []
    consume(store, len(items), got.append)
    for i, it in enumerate(items):
        env.timeout(i + 1).callbacks.append(lambda ev, it=it: store.put_nowait(it))
    env.run()
    assert got == items
