"""The remote data access / network model."""

import pytest

from repro.core.parameters import NetworkParams
from repro.des import Environment
from repro.sim.messages import Message, MsgKind
from repro.sim.network import Network


def make_net(n=4, **kw):
    env = Environment()
    net = Network(env, n, NetworkParams(**kw))
    inboxes = [[] for _ in range(n)]
    net.attach([inboxes[i].append for i in range(n)])
    return env, net, inboxes


def test_wire_time_components():
    env, net, _ = make_net(
        comm_startup_time=0.0,
        byte_transfer_time=0.1,
        hop_time=1.0,
        header_nbytes=8,
        topology="crossbar",
        contention=False,
    )
    msg = Message(MsgKind.REQUEST, src=0, dst=1, nbytes=92)
    # (92 + 8) * 0.1 + 1 hop * 1.0
    assert net.wire_time(msg) == pytest.approx(11.0)


def test_delivery_after_transit():
    env, net, inboxes = make_net(
        byte_transfer_time=0.1, hop_time=0.0, header_nbytes=0, contention=False
    )
    transit = net.send(Message(MsgKind.REQUEST, src=0, dst=2, nbytes=100))
    assert transit == pytest.approx(10.0)
    while env.peek() <= 9.9:
        env.step()
    assert inboxes[2] == []
    while env.peek() <= 10.1:
        env.step()
    assert len(inboxes[2]) == 1


def test_contention_multiplier_grows_with_in_flight():
    env, net, _ = make_net(
        byte_transfer_time=0.01,
        hop_time=0.0,
        topology="bus",  # bisection 1: maximum sensitivity
        contention=True,
        contention_factor=1.0,
    )
    t1 = net.send(Message(MsgKind.REQUEST, src=0, dst=1, nbytes=1000))
    # second message while the first is in flight costs more: multiplier
    # 1 + 1.0 * 1 / 1 on the wire term (no hop term here)
    t2 = net.send(Message(MsgKind.REQUEST, src=2, dst=3, nbytes=1000))
    assert t2 > t1
    assert t2 == pytest.approx(2 * t1)
    env.run()
    # drained: nothing in flight, the first message's price again
    assert net.send(Message(MsgKind.REQUEST, src=0, dst=1, nbytes=1000)) == t1


def test_contention_disabled():
    env, net, _ = make_net(contention=False, topology="bus", byte_transfer_time=0.01)
    t1 = net.send(Message(MsgKind.REQUEST, src=0, dst=1, nbytes=1000))
    # one message in flight, yet the second pays the same transit
    assert net.send(Message(MsgKind.REQUEST, src=2, dst=3, nbytes=1000)) == t1


def test_message_to_self_rejected():
    env, net, _ = make_net()
    with pytest.raises(ValueError):
        net.send(Message(MsgKind.REQUEST, src=1, dst=1, nbytes=4))


def test_unattached_network_rejected():
    env = Environment()
    net = Network(env, 2, NetworkParams())
    with pytest.raises(RuntimeError):
        net.send(Message(MsgKind.REQUEST, src=0, dst=1, nbytes=4))


def test_stats():
    env, net, _ = make_net(contention=False)
    net.send(Message(MsgKind.REQUEST, src=0, dst=1, nbytes=10))
    net.send(Message(MsgKind.REPLY, src=1, dst=0, nbytes=30))
    env.run()
    assert net.stats.messages == 2
    assert net.stats.bytes == 40
    assert net.stats.by_kind == {"request": 1, "reply": 1}
    assert net.stats.max_in_flight >= 1
    assert net.stats.total_wire_time > 0


def test_attach_wrong_count():
    env = Environment()
    net = Network(env, 3, NetworkParams())
    with pytest.raises(ValueError):
        net.attach([lambda m: None])
