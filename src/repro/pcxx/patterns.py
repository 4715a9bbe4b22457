"""Reusable communication patterns over per-thread collections.

pC++ programs express global communication (broadcast, reduction, shifts)
through remote element reads plus barriers.  The benchmark suite shares
these helpers; each operates on a 1-D collection with one element per
thread (index == thread id) and is a generator usable from thread bodies.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.pcxx.collection import Collection
from repro.pcxx.runtime import ThreadCtx


def bcast(
    ctx: ThreadCtx,
    coll: Collection,
    root: int = 0,
    nbytes: int | None = None,
) -> Generator[Any, Any, Any]:
    """Broadcast thread ``root``'s element to every thread.

    Every non-root thread performs one remote read of the root element;
    a barrier before the reads makes sure the root has published its
    value, and one after keeps the phases aligned.  Returns the value.
    """
    yield from ctx.barrier()
    if ctx.tid == root:
        value = yield from ctx.get(coll, root, nbytes=nbytes)
    else:
        value = yield from ctx.get(coll, root, nbytes=nbytes)
    yield from ctx.barrier()
    return value


def reduce_tree(
    ctx: ThreadCtx,
    coll: Collection,
    op: Callable[[Any, Any], Any],
    nbytes: int | None = None,
) -> Generator[Any, Any, Any]:
    """Logarithmic pairwise reduction; the result lands on thread 0.

    Each stage halves the number of active threads: thread t with
    ``t % (2*step) == 0`` reads its partner ``t + step``'s element and
    combines.  Every thread returns the value its element holds at the
    end (thread 0 holds the global result).
    """
    n = ctx.n_threads
    step = 1
    while step < n:
        yield from ctx.barrier()
        if ctx.tid % (2 * step) == 0 and ctx.tid + step < n:
            mine = yield from ctx.get(coll, ctx.tid)
            theirs = yield from ctx.get(coll, ctx.tid + step, nbytes=nbytes)
            yield from ctx.put(coll, ctx.tid, op(mine, theirs))
        step *= 2
    yield from ctx.barrier()
    return (yield from ctx.get(coll, ctx.tid))


def all_reduce_via_root(
    ctx: ThreadCtx,
    coll: Collection,
    op: Callable[[Any, Any], Any],
    nbytes: int | None = None,
) -> Generator[Any, Any, Any]:
    """Reduce to thread 0, then broadcast the result back to everyone."""
    result = yield from reduce_tree(ctx, coll, op, nbytes=nbytes)
    if ctx.tid == 0:
        yield from ctx.put(coll, 0, result)
    value = yield from bcast(ctx, coll, 0, nbytes=nbytes)
    return value
