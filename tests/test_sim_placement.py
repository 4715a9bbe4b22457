"""Processor-mapping extrapolation (the §2 placement axis)."""

import pytest

from repro.core import presets
from repro.core.parameters import NetworkParams
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.des import Environment
from repro.pcxx import Collection, make_distribution
from repro.sim.messages import Message, MsgKind
from repro.sim.network import Network
from repro.sim.simulator import simulate


def ring_program(rt):
    """Each thread repeatedly reads its +1 neighbour: ring traffic."""
    n = rt.n_threads
    coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
    for i in range(n):
        coll.poke(i, i)

    def body(ctx):
        for _ in range(4):
            yield from ctx.compute_us(50.0)
            yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=64)
            yield from ctx.barrier()

    return body


def test_placement_validation():
    env = Environment()
    with pytest.raises(ValueError, match="permutation"):
        Network(env, 4, NetworkParams(), placement=[0, 1, 1, 2])
    with pytest.raises(ValueError, match="permutation"):
        Network(env, 4, NetworkParams(), placement=[0, 1, 2])


def test_identity_placement_is_default():
    env = Environment()
    net = Network(env, 4, NetworkParams())
    assert net.placement == [0, 1, 2, 3]


def test_placement_changes_hop_costs():
    env = Environment()
    params = NetworkParams(topology="ring", hop_time=10.0, contention=False)
    identity = Network(env, 8, params)
    # Reverse placement: logical neighbours land far apart... except a
    # reversed ring is still a ring; use a shuffle that breaks adjacency.
    shuffled = Network(env, 8, params, placement=[0, 4, 1, 5, 2, 6, 3, 7])
    msg = Message(MsgKind.REQUEST, src=0, dst=1, nbytes=8)
    t_id = identity.wire_time(msg)
    msg2 = Message(MsgKind.REQUEST, src=0, dst=1, nbytes=8)
    t_sh = shuffled.wire_time(msg2)
    assert t_sh > t_id  # logical neighbours are 4 hops apart physically


def test_bad_placement_slows_ring_traffic():
    """Ring traffic on a ring topology: the natural placement beats an
    adjacency-breaking shuffle — extrapolation exposes mapping quality."""
    n = 8
    tp = translate(measure(ring_program, n, name="ring"))
    params = presets.distributed_memory().with_(
        network={"topology": "ring", "hop_time": 20.0}
    )
    good = simulate(tp, params).execution_time
    bad = simulate(
        tp, params, placement=[0, 4, 1, 5, 2, 6, 3, 7]
    ).execution_time
    assert bad > good


def test_placement_irrelevant_on_crossbar():
    n = 8
    tp = translate(measure(ring_program, n, name="ring"))
    params = presets.distributed_memory().with_(network={"topology": "crossbar"})
    a = simulate(tp, params).execution_time
    b = simulate(tp, params, placement=list(reversed(range(n)))).execution_time
    assert a == pytest.approx(b)
