"""Interconnect topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.topology import available_topologies, make_topology


def test_registry():
    names = available_topologies()
    for expected in ("bus", "crossbar", "ring", "mesh2d", "torus2d", "hypercube", "fattree"):
        assert expected in names
    with pytest.raises(ValueError):
        make_topology("donut", 4)


def test_crossbar():
    t = make_topology("crossbar", 8)
    assert t.hops(0, 0) == 0
    assert t.hops(0, 7) == 1
    assert t.bisection == 4


def test_bus():
    t = make_topology("bus", 8)
    assert t.hops(2, 5) == 1
    assert t.bisection == 1


def test_ring():
    t = make_topology("ring", 8)
    assert t.hops(0, 1) == 1
    assert t.hops(0, 4) == 4
    assert t.hops(0, 7) == 1  # wraps
    assert t.bisection == 2


def test_mesh2d():
    t = make_topology("mesh2d", 16)  # 4x4
    assert t.hops(0, 5) == 2  # (0,0) -> (1,1)
    assert t.hops(0, 15) == 6
    assert t.bisection == 4


def test_torus2d_wraps():
    t = make_topology("torus2d", 16)
    assert t.hops(0, 12) == 1  # (0,0) -> (3,0) wraps vertically
    assert t.bisection == 8


def test_hypercube():
    t = make_topology("hypercube", 8)
    assert t.hops(0, 7) == 3
    assert t.hops(0, 1) == 1
    assert t.bisection == 4


def test_fattree():
    t = make_topology("fattree", 16)
    assert t.hops(0, 1) == 2  # share a leaf switch: up 1, down 1
    assert t.hops(0, 15) == 4
    assert t.bisection == 8


def test_out_of_range():
    t = make_topology("crossbar", 4)
    with pytest.raises(IndexError):
        t.hops(0, 4)


def test_single_node():
    for name in available_topologies():
        t = make_topology(name, 1)
        assert t.hops(0, 0) == 0
        assert t.bisection >= 1


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(available_topologies()),
    n=st.integers(1, 40),
    data=st.data(),
)
def test_topology_metric_properties(name, n, data):
    """Property: hops is a metric (symmetric, zero only on the
    diagonal, triangle inequality)."""
    t = make_topology(name, n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert t.hops(a, b) == t.hops(b, a)
    assert (t.hops(a, b) == 0) == (a == b)
    assert t.hops(a, c) <= t.hops(a, b) + t.hops(b, c)
    assert t.bisection >= 1
