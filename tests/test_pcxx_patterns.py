"""Communication patterns used by the benchmarks."""

import numpy as np
import pytest

from repro.pcxx import Collection, TracingRuntime, make_distribution
from repro.pcxx.patterns import all_reduce_via_root, bcast, reduce_tree
from repro.trace.validate import validate_trace


def per_thread_coll(n):
    c = Collection("v", make_distribution(n, n, "block"), element_nbytes=8)
    for i in range(n):
        c.poke(i, float(i + 1))
    return c


@pytest.mark.parametrize("n", [1, 2, 4, 5, 8])
def test_reduce_tree_sum(n):
    rt = TracingRuntime(n, "p")
    coll = per_thread_coll(n)
    results = {}

    def body(ctx):
        total = yield from reduce_tree(ctx, coll, lambda a, b: a + b)
        results[ctx.tid] = total

    validate_trace(rt.run(body))
    assert results[0] == sum(range(1, n + 1))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_all_reduce_everyone_gets_total(n):
    rt = TracingRuntime(n, "p")
    coll = per_thread_coll(n)
    results = {}

    def body(ctx):
        total = yield from all_reduce_via_root(ctx, coll, lambda a, b: a + b)
        results[ctx.tid] = total

    validate_trace(rt.run(body))
    assert set(results.values()) == {sum(range(1, n + 1))}
    assert len(results) == n


def test_bcast():
    n = 4
    rt = TracingRuntime(n, "p")
    coll = per_thread_coll(n)
    results = {}

    def body(ctx):
        v = yield from bcast(ctx, coll, root=2)
        results[ctx.tid] = v

    validate_trace(rt.run(body))
    assert set(results.values()) == {3.0}


def test_reduce_tree_is_log_depth_in_barriers():
    n = 8
    rt = TracingRuntime(n, "p")
    coll = per_thread_coll(n)

    def body(ctx):
        yield from reduce_tree(ctx, coll, lambda a, b: a + b)

    trace = rt.run(body)
    # log2(8) + 1 = 4 barrier episodes.
    assert trace.barrier_count() == 4
