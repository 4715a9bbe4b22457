"""Programs that violate the barrier discipline must fail loudly."""

import pytest

from repro.pcxx import DeadlockError, TracingRuntime


def test_missing_barrier_participant_deadlocks():
    """A thread skipping a barrier leaves the others waiting forever —
    the runtime detects it instead of hanging, and names who waits."""
    rt = TracingRuntime(3, "bad")

    def body(ctx):
        if ctx.tid != 2:  # thread 2 never joins
            yield from ctx.barrier()

    with pytest.raises(
        DeadlockError, match=r": thread 0 at barrier 0, thread 1 at barrier 0$"
    ):
        rt.run(body)


def test_unequal_barrier_counts_deadlock():
    rt = TracingRuntime(2, "bad")

    def body(ctx):
        yield from ctx.barrier()
        if ctx.tid == 0:
            yield from ctx.barrier()  # one extra on thread 0

    with pytest.raises(DeadlockError, match=r": thread 0 at barrier 1$"):
        rt.run(body)


@pytest.mark.parametrize("stray", [None, 5, "barrier"])
def test_stray_yield_rejected(stray):
    """A body may only yield from ThreadCtx operations; anything else
    is reported the way the reference machine reports it."""
    rt = TracingRuntime(2, "bad")

    def body(ctx):
        yield from ctx.compute(1)
        if ctx.tid == 1:
            yield stray

    with pytest.raises(
        RuntimeError,
        match=rf"^thread 1: program yielded {stray!r}, expected a ThreadCtx operation$",
    ):
        rt.run(body)


def test_exception_in_body_propagates():
    rt = TracingRuntime(2, "bad")

    def body(ctx):
        if ctx.tid == 1:
            raise RuntimeError("application bug")
        yield from ctx.compute(1)

    with pytest.raises(RuntimeError, match="application bug"):
        rt.run(body)


def test_compute_noise_validation():
    with pytest.raises(ValueError):
        TracingRuntime(2, "bad", compute_noise=1.5)
    with pytest.raises(ValueError):
        TracingRuntime(2, "bad", compute_noise=-0.1)


def test_compute_noise_reproducible_and_bounded():
    from repro.core.pipeline import measure
    from repro.pcxx import Collection, make_distribution

    def program(rt):
        def body(ctx):
            yield from ctx.compute_us(1000.0)
            yield from ctx.barrier()

        return body

    a = measure(program, 2, name="n", compute_noise=0.1, noise_seed=5)
    b = measure(program, 2, name="n", compute_noise=0.1, noise_seed=5)
    c = measure(program, 2, name="n", compute_noise=0.1, noise_seed=6)
    clean = measure(program, 2, name="n")
    assert a.events == b.events
    assert a.events != c.events
    # Each compute stays within +-10%.
    assert abs(a.duration - clean.duration) <= 0.1 * clean.duration + 1e-9
