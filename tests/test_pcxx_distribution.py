"""Distributions, including the paper's integer-sqrt (BLOCK,BLOCK) rule."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pcxx.distribution import (
    Dist,
    Distribution1D,
    Distribution2D,
    make_distribution,
)


def threads_used(d):
    """Number of threads owning at least one element."""
    return sum(1 for t in range(d.n_threads) if d.local_indices(t))


def test_dist_parse():
    assert Dist.parse("block") is Dist.BLOCK
    assert Dist.parse(" CYCLIC ") is Dist.CYCLIC
    assert Dist.parse(Dist.WHOLE) is Dist.WHOLE
    with pytest.raises(ValueError):
        Dist.parse("diagonal")


def test_block_1d():
    d = Distribution1D(10, 4, Dist.BLOCK)
    assert [d.owner(i) for i in range(10)] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
    assert d.local_indices(3) == [9]
    assert threads_used(d) == 4


def test_cyclic_1d():
    d = Distribution1D(10, 4, Dist.CYCLIC)
    assert [d.owner(i) for i in range(10)] == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
    assert d.local_indices(2) == [2, 6]


def test_whole_1d():
    d = Distribution1D(5, 4, Dist.WHOLE)
    assert all(d.owner(i) == 0 for i in range(5))
    assert d.local_indices(0) == list(range(5))
    assert d.local_indices(1) == []
    assert threads_used(d) == 1


def test_1d_bounds():
    d = Distribution1D(4, 2)
    with pytest.raises(IndexError):
        d.owner(4)
    with pytest.raises(IndexError):
        d.local_indices(2)


def test_block_block_integer_sqrt_rule():
    """The §4.1 artifact: N=8 uses a 2x2 grid — 4 threads idle."""
    d = Distribution2D(8, 8, 8, Dist.BLOCK, Dist.BLOCK)
    assert d.grid_shape == (2, 2)
    assert threads_used(d) == 4
    assert d.local_indices(4) == []
    assert d.local_indices(7) == []
    # And the same data on 4 threads is distributed identically.
    d4 = Distribution2D(8, 8, 4, Dist.BLOCK, Dist.BLOCK)
    for t in range(4):
        assert d.local_indices(t) == d4.local_indices(t)


def test_block_block_perfect_square():
    d = Distribution2D(8, 8, 16, Dist.BLOCK, Dist.BLOCK)
    assert d.grid_shape == (4, 4)
    assert threads_used(d) == 16
    assert d.owner((0, 0)) == 0
    assert d.owner((7, 7)) == 15


def test_n2_collapses_to_one_thread():
    # isqrt(2) == 1: the same artifact at two threads (documented).
    d = Distribution2D(4, 4, 2, Dist.BLOCK, Dist.BLOCK)
    assert d.grid_shape == (1, 1)
    assert threads_used(d) == 1


def test_whole_dimension_collapses_grid():
    d = Distribution2D(6, 6, 4, Dist.BLOCK, Dist.WHOLE)
    assert d.grid_shape == (4, 1)
    # ceil-blocks of 2 rows: thread 3 is left empty (6 = 2+2+2).
    assert {d.owner((r, 0)) for r in range(6)} == {0, 1, 2}
    d8 = Distribution2D(8, 8, 4, Dist.BLOCK, Dist.WHOLE)
    assert {d8.owner((r, 0)) for r in range(8)} == {0, 1, 2, 3}
    d2 = Distribution2D(6, 6, 4, Dist.WHOLE, Dist.CYCLIC)
    assert d2.grid_shape == (1, 4)
    assert {d2.owner((0, c)) for c in range(6)} == {0, 1, 2, 3}


def test_whole_whole():
    d = Distribution2D(3, 3, 8, Dist.WHOLE, Dist.WHOLE)
    assert threads_used(d) == 1
    assert len(d.local_indices(0)) == 9


def test_make_distribution():
    d1 = make_distribution(10, 4, "cyclic")
    assert isinstance(d1, Distribution1D)
    d2 = make_distribution((4, 4), 4, ("block", "whole"))
    assert isinstance(d2, Distribution2D)
    with pytest.raises(ValueError):
        make_distribution((2, 2, 2), 4)
    with pytest.raises(ValueError):
        make_distribution((4, 4), 4, ("block",))


dims = st.sampled_from([Dist.BLOCK, Dist.CYCLIC, Dist.WHOLE])


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(1, 60),
    n=st.integers(1, 33),
    attr=dims,
)
def test_1d_partition_property(size, n, attr):
    """Property: local_indices partitions the index space and matches owner."""
    d = Distribution1D(size, n, attr)
    seen = []
    for t in range(n):
        for i in d.local_indices(t):
            assert d.owner(i) == t
            seen.append(i)
    assert sorted(seen) == list(range(size))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    n=st.integers(1, 33),
    ra=dims,
    ca=dims,
)
def test_2d_partition_property(rows, cols, n, ra, ca):
    """Property: the 2-D distribution partitions the index space."""
    d = Distribution2D(rows, cols, n, ra, ca)
    seen = []
    for t in range(n):
        for idx in d.local_indices(t):
            assert d.owner(idx) == t
            seen.append(idx)
    assert sorted(seen) == [(r, c) for r in range(rows) for c in range(cols)]
