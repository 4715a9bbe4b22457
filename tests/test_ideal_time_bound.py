"""Oracle (i): no target environment predicts less than the ideal time.

The simulator scales each compute gap of the translated program by
exactly ``duration * mips_ratio`` (``SimProcessor._compute``); remote
accesses, barriers, request service, contention and sharing a
processor among k threads only add time.  The translated program's
ideal time is the same program with all of those free, so for every
program, preset, service policy, barrier algorithm and thread
placement::

    predicted_time >= ideal_time * mips_ratio

No closed form is needed for the left side.  Generated programs mix
compute, remote reads and writes to any thread (self included: a local
access) and global barriers, with or without a closing barrier.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.pcxx import Collection, make_distribution
from repro.sim.simulator import assign_threads, simulate


@st.composite
def programs(draw):
    """``(n, phases, closing_barrier)``: ``phases[p][t]`` is thread t's
    op list in phase p, each phase but maybe the last ending in a
    barrier."""
    n = draw(st.integers(1, 8))
    compute = st.floats(0.0, 500.0, allow_nan=False, allow_infinity=False)
    op = st.one_of(
        st.tuples(st.just("compute"), compute),
        st.tuples(
            st.sampled_from(("get", "put")),
            st.integers(0, n - 1),
            st.integers(1, 512),
        ),
    )
    phase = st.lists(st.lists(op, max_size=4), min_size=n, max_size=n)
    phases = draw(st.lists(phase, min_size=1, max_size=4))
    return n, phases, draw(st.booleans())


def program_factory(n, phases, closing_barrier):
    def factory(rt):
        coll = Collection("c", make_distribution(n, n, "block"), element_nbytes=64)
        for i in range(n):
            coll.poke(i, i)

        def body(ctx):
            for p, ops in enumerate(phases):
                for kind, *args in ops[ctx.tid]:
                    if kind == "compute":
                        yield from ctx.compute_us(args[0])
                    elif kind == "get":
                        yield from ctx.get(coll, args[0], nbytes=args[1])
                    else:
                        yield from ctx.put(coll, args[0], ctx.tid, nbytes=args[1])
                if p < len(phases) - 1 or closing_barrier:
                    yield from ctx.barrier()

        return body

    return factory


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    program=programs(),
    k_share=st.integers(0, 7),
    scheme=st.sampled_from(["block", "cyclic"]),
    preset=st.sampled_from(sorted(presets.PRESETS)),
    policy=st.sampled_from(["no_interrupt", "interrupt", "poll"]),
    algorithm=st.sampled_from(["linear", "log", "hardware"]),
    mips_ratio=st.sampled_from([None, 0.25, 0.41, 1.0, 3.0]),
)
def test_predicted_time_is_at_least_scaled_ideal_time(
    program, k_share, scheme, preset, policy, algorithm, mips_ratio
):
    check_bound(
        program, k_share, scheme, preset, policy, algorithm, mips_ratio
    )


def check_bound(program, k_share, scheme, preset, policy, algorithm, mips_ratio):
    n, phases, closing_barrier = program
    trace = measure(
        program_factory(n, phases, closing_barrier), n, name="r",
        size_mode="actual",
    )
    tp = translate(trace)
    processor = {"policy": policy}
    if mips_ratio is not None:
        processor["mips_ratio"] = mips_ratio
    params = presets.by_name(preset).with_(
        processor=processor,
        barrier={"algorithm": algorithm},
        network={"contention": True},
    )
    # m processors, so k = ceil(n / m) >= 1 threads on the busiest one.
    m = n - min(k_share, n - 1)
    res = simulate(tp, params, assignment=assign_threads(n, m, scheme))
    bound = tp.ideal_execution_time() * params.processor.mips_ratio
    assert res.execution_time >= bound, (
        f"predicted {res.execution_time!r} < ideal x mips_ratio {bound!r}"
    )


#: Inputs a longer unseeded search found that once broke the bound.
#: ``interrupt`` and ``poll`` skipped a compute action of at most
#: ``_EPS`` (1e-9 us); every policy now charges it through ``_busy``.
FIXED_VIOLATIONS = [
    pytest.param(
        (1, [[[("compute", 1.6695309067474116e-125)]]], False),
        0, "block", "cm5", policy, "linear", None,
        id=f"{policy}-charges-sub-femtosecond-compute",
    )
    for policy in ("no_interrupt", "interrupt", "poll")
]


@pytest.mark.parametrize(
    "program, k_share, scheme, preset, policy, algorithm, mips_ratio",
    FIXED_VIOLATIONS,
)
def test_fixed_violations_of_the_bound(
    program, k_share, scheme, preset, policy, algorithm, mips_ratio
):
    check_bound(program, k_share, scheme, preset, policy, algorithm, mips_ratio)


#: Inputs a longer unseeded search found that break the bound, each by
#: less than 1e-9 us.  They stay failing until the model changes.
KNOWN_VIOLATIONS = [
    pytest.param(
        (6, [[[]] * 5 + [[("compute", c)]] for c in (1.0, 38.0, 0.5)], False),
        0, "block", "ideal", "no_interrupt", "linear", 0.41,
        id="scaled-sum-rounds-below-scaled-ideal",
        marks=pytest.mark.xfail(
            strict=True,
            reason="the replay sums each scaled gap (16.194999999999997), "
            "the bound scales the summed gaps (16.195)",
        ),
    ),
]


@pytest.mark.parametrize(
    "program, k_share, scheme, preset, policy, algorithm, mips_ratio",
    KNOWN_VIOLATIONS,
)
def test_known_violations_of_the_bound(
    program, k_share, scheme, preset, policy, algorithm, mips_ratio
):
    check_bound(program, k_share, scheme, preset, policy, algorithm, mips_ratio)
