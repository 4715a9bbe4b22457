"""The reference target-machine simulator."""

import pytest

from repro.des import Event
from repro.machine import CM5_SPEC, Machine, MachineSpec, run_on_machine
from repro.pcxx import Collection, make_distribution
from repro.trace.events import EventKind


def simple_factory(n, work=1000.0, read=True):
    def factory(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, float(i) * 2)

        def body(ctx):
            yield from ctx.compute(work)
            if read and n > 1:
                v = yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
                assert v == float((ctx.tid + 1) % n) * 2
            yield from ctx.barrier()

        return body

    return factory


def test_compute_at_node_rate():
    res = run_on_machine(simple_factory(1, work=2764.5, read=False), 1)
    # 2764.5 flops at 2.7645 MFLOPS = 1000us, plus barrier costs.
    assert res.execution_time == pytest.approx(
        1000.0
        + CM5_SPEC.barrier_entry_time
        + CM5_SPEC.barrier_latency
        + CM5_SPEC.barrier_exit_time
    )


def test_remote_values_are_real():
    res = run_on_machine(simple_factory(4), 4)  # asserts inside bodies
    assert res.execution_time > 0
    assert res.messages == 8  # request+reply per node


def test_measured_trace_shape():
    res = run_on_machine(simple_factory(2), 2)
    for tt in res.threads:
        kinds = [e.kind for e in tt.events]
        assert kinds[0] == EventKind.THREAD_BEGIN
        assert kinds[-1] == EventKind.THREAD_END
        assert EventKind.BARRIER_ENTER in kinds
        times = [e.time for e in tt.events]
        assert times == sorted(times)


def test_barrier_synchronises():
    def factory(rt):
        n = rt.n_threads
        marks = {}

        def body(ctx):
            yield from ctx.compute_us(100.0 * (ctx.tid + 1))
            yield from ctx.barrier()
            marks[ctx.tid] = ctx.now

        factory.marks = marks
        return body

    res = run_on_machine(factory, 4)
    marks = factory.marks
    # Everyone leaves the barrier within exit-time of each other, after
    # the slowest arrival (400us).
    assert min(marks.values()) > 400.0
    assert max(marks.values()) - min(marks.values()) < 1.0


def test_remote_write():
    def factory(rt):
        n = 2
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        coll.poke(0, 0.0)
        coll.poke(1, 0.0)

        def body(ctx):
            if ctx.tid == 0:
                yield from ctx.put(coll, 1, 42.0)
            yield from ctx.barrier()
            if ctx.tid == 1:
                v = yield from ctx.get(coll, 1)
                assert v == 42.0

        return body

    res = run_on_machine(factory, 2)
    assert res.nodes[1].requests_served == 1


def test_port_contention_serialises_hotspot():
    """n-1 nodes reading node 0 simultaneously queue on its ports, so the
    hotspot run takes longer per message than a pairwise pattern."""
    n = 8

    def hotspot(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=4096)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            if ctx.tid != 0:
                yield from ctx.get(coll, 0)  # full 4 KB elements
            yield from ctx.barrier()

        return body

    def pairwise(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=4096)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            if ctx.tid % 2 == 1:
                yield from ctx.get(coll, ctx.tid - 1)
            yield from ctx.barrier()

        return body

    hot = run_on_machine(hotspot, n)
    pair = run_on_machine(pairwise, n)
    assert hot.execution_time > pair.execution_time


def test_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec(node_mflops=0)
    with pytest.raises(ValueError):
        MachineSpec(byte_time=-1)


def test_machine_run_twice_rejected():
    m = Machine(2)
    m.run(simple_factory(2))
    with pytest.raises(RuntimeError):
        m.run(simple_factory(2))


def test_paragon_spec_differs_from_cm5():
    from repro.machine import PARAGON_SPEC

    def comm_heavy(rt):
        n = rt.n_threads
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            for _ in range(3):
                yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=64)
                yield from ctx.barrier()

        return body

    cm5 = run_on_machine(comm_heavy, 8, name="x")
    paragon = run_on_machine(comm_heavy, 8, spec=PARAGON_SPEC, name="x")
    # Different machines, different times (Paragon's start-up and
    # software barriers dominate this message-bound pattern).
    assert paragon.execution_time != cm5.execution_time
    assert paragon.spec.name == "paragon"


def test_mesh_topology_machine_has_distance_effects():
    from repro.machine import MachineSpec

    mesh = MachineSpec(name="mesh", topology="mesh2d", hop_time=50.0)

    def read_from(owner):
        def factory(rt):
            n = rt.n_threads
            coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
            for i in range(n):
                coll.poke(i, i)

            def body(ctx):
                if ctx.tid == 0:
                    yield from ctx.get(coll, owner, nbytes=8)
                yield from ctx.barrier()

            return body

        return factory

    near = run_on_machine(read_from(1), 16, spec=mesh, name="near")
    far = run_on_machine(read_from(15), 16, spec=mesh, name="far")
    assert far.execution_time > near.execution_time


def test_paragon_calibration():
    from repro.calibrate import calibrate
    from repro.machine import PARAGON_SPEC

    params, report = calibrate(PARAGON_SPEC)
    assert report.byte_transfer_time == pytest.approx(
        PARAGON_SPEC.byte_time, rel=0.05
    )
    assert params.name == "calibrated-paragon"


def test_benchmarks_run_on_machine():
    """The same benchmark programs (with their internal verification)
    run unmodified on the reference machine."""
    from repro.bench.grid import GridConfig, make_program

    cfg = GridConfig(patch_rows=2, patch_cols=2, m=4, iterations=2)
    res = run_on_machine(make_program(cfg)(4), 4, name="grid")
    assert res.execution_time > 0
    assert res.meta.program == "grid"


def test_program_exception_leaves_run_unchanged():
    """An exception raised inside a program body, here after a remote
    read, leaves ``run_on_machine`` with its type and message unchanged."""

    def factory(rt):
        n = rt.n_threads
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            yield from ctx.compute(100.0)
            yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
            if ctx.tid == 1:
                raise KeyError("node 1 failed mid-run")
            yield from ctx.barrier()

        return body

    with pytest.raises(KeyError) as info:
        run_on_machine(factory, 2)
    assert type(info.value) is KeyError
    assert info.value.args == ("node 1 failed mid-run",)


#: What a program may not yield: a non-operation, a bare float (not
#: taken as a sleep), ``None``, and a raw DES event (not waited on).
NON_OPERATIONS = (
    lambda ctx: "not an operation",
    lambda ctx: 1.5,
    lambda ctx: None,
    lambda ctx: Event(ctx.env),
)


def test_program_yielding_a_non_operation_is_rejected():
    for make_value in NON_OPERATIONS:

        def factory(rt):
            def body(ctx):
                yield make_value(ctx)

            return body

        with pytest.raises(RuntimeError, match="expected a ThreadCtx operation"):
            run_on_machine(factory, 1)


@pytest.mark.parametrize("p", (2, 4, 8, 16))
@pytest.mark.parametrize("name", ("embar", "cyclic"))
def test_cm5_prediction_agrees_with_the_machine(name, p):
    """Differential oracle: where the two models should agree, they do.

    embar and cyclic at default sizes are compute-bound with little,
    regular communication, so the ``cm5`` preset's prediction from an
    ``actual``-size trace lands within 1% of the CM-5 reference machine
    running the program (measured: embar 0.9977-1.0003, cyclic
    0.9982-1.0042).  A smaller cyclic drifts further (1.068 at
    ``system_size=1024``), so the sizes stay at their defaults.
    """
    from repro.bench.suite import BENCHMARKS
    from repro.core import presets
    from repro.core.pipeline import extrapolate, measure

    maker = BENCHMARKS[name].make_program()
    trace = measure(maker(p), p, name=name, size_mode="actual")
    predicted = extrapolate(trace, presets.cm5()).predicted_time
    measured = run_on_machine(maker(p), p, spec=CM5_SPEC, name=name).execution_time
    assert predicted == pytest.approx(measured, rel=0.01)
