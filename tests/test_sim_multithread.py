"""The multithreaded-processor extension (n threads on m processors)."""

import pytest

from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.pcxx import Collection, make_distribution
from repro.sim.simulator import Simulator, assign_threads, simulate


def program(rt):
    n = rt.n_threads
    coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
    for i in range(n):
        coll.poke(i, i)

    def body(ctx):
        for it in range(2):
            yield from ctx.compute_us(500.0)
            if n > 1:
                yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
            yield from ctx.barrier()

    return body


def tp(n=8):
    return translate(measure(program, n, name="mt"))


def test_assignment_block():
    assert assign_threads(8, 2, "block") == [0, 0, 0, 0, 1, 1, 1, 1]
    assert assign_threads(6, 4, "block") == [0, 0, 1, 2, 2, 3]
    assert assign_threads(10, 4, "block") == [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]


def test_assignment_cyclic():
    assert assign_threads(8, 2, "cyclic") == [0, 1, 0, 1, 0, 1, 0, 1]


def test_assignment_validation():
    with pytest.raises(ValueError):
        assign_threads(4, 8)  # m > n
    with pytest.raises(ValueError):
        assign_threads(4, 0)
    with pytest.raises(ValueError):
        assign_threads(4, 2, "random")


def test_simulator_rejects_a_bad_assignment():
    with pytest.raises(ValueError, match="host no thread"):
        Simulator(tp(4), presets.distributed_memory(), assignment=[0, 0, 2, 2])
    with pytest.raises(ValueError, match="maps 3 threads"):
        Simulator(tp(4), presets.distributed_memory(), assignment=[0, 0, 1])
    with pytest.raises(ValueError, match="negative"):
        Simulator(tp(4), presets.distributed_memory(), assignment=[0, -1, 1, 1])


def test_single_processor_serialises_everything():
    t = tp(4)
    res = simulate(t, presets.distributed_memory(), assignment=[0, 0, 0, 0])
    # Everything is local on one processor: no network traffic.
    assert res.network.messages == 0
    # All compute serialised: at least the sum of all compute phases.
    assert res.execution_time >= t.total_compute_time()


def test_full_width_close_to_singlethread_model():
    """m == n is the per-processor simulator itself: one thread on each
    processor replays exactly as the paper's model does."""
    t = tp(8)
    mt = simulate(
        t, presets.distributed_memory(), assignment=assign_threads(8, 8)
    )
    st = simulate(t, presets.distributed_memory())
    assert mt.execution_time == st.execution_time


def test_more_processors_never_lose_big_on_compute_bound():
    def compute_only(rt):
        def body(ctx):
            yield from ctx.compute_us(2000.0)
            yield from ctx.barrier()

        return body

    t = translate(measure(compute_only, 8, name="c"))
    times = {
        m: simulate(
            t, presets.distributed_memory(), assignment=assign_threads(8, m)
        ).execution_time
        for m in (1, 2, 4, 8)
    }
    assert times[8] < times[4] < times[2] < times[1]
    # Perfect strong scaling on pure compute (up to barrier costs).
    assert times[1] / times[8] > 6


def test_same_processor_access_is_local():
    t = tp(8)
    res = simulate(
        t, presets.distributed_memory(), assignment=assign_threads(8, 4, "block")
    )
    # Neighbour reads (tid+1): 3/4 of them stay inside a block of 2...
    local = res.local_accesses()
    served = sum(p.requests_served for p in res.processors)
    assert local > 0
    assert local + served == 8 * 2  # every read accounted once


def test_cyclic_assignment_changes_locality():
    t = tp(8)
    block = simulate(
        t, presets.distributed_memory(), assignment=assign_threads(8, 4, "block")
    )
    cyc = simulate(
        t, presets.distributed_memory(), assignment=assign_threads(8, 4, "cyclic")
    )
    # Neighbour communication: block packing keeps some reads local;
    # cyclic assignment makes every (tid+1) read remote.
    assert block.assignment == assign_threads(8, 4, "block")
    assert cyc.assignment == assign_threads(8, 4, "cyclic")
    assert cyc.local_accesses() == 0
    assert block.local_accesses() > 0
    assert cyc.network.messages > block.network.messages


def test_run_twice_rejected():
    sim = Simulator(tp(4), presets.distributed_memory(), assignment=[0, 0, 1, 1])
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


def test_utilization_bounds():
    res = simulate(
        tp(8), presets.distributed_memory(), assignment=assign_threads(8, 4)
    )
    assert 0.0 < res.utilization() <= 1.0
    thread_end_times = [tt.end_time for tt in res.threads]
    assert len(thread_end_times) == 8
    assert res.execution_time == max(thread_end_times)
