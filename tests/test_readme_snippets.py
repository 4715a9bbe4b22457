"""The README and package-docstring examples must actually run."""


def test_readme_quickstart():
    from repro import extrapolate, measure, presets
    from repro.bench.grid import GridConfig, make_program

    maker = make_program(GridConfig(patch_rows=2, patch_cols=2, m=4, iterations=2))
    trace = measure(maker(8), 8, name="grid")
    outcome = extrapolate(trace, presets.cm5())
    assert outcome.predicted_time >= outcome.ideal_time > 0
    assert "grid" in outcome.result.summary()


def test_package_docstring_example():
    import repro

    # The module docstring's example, executed.
    from repro import extrapolate, measure, presets
    from repro.bench.grid import GridConfig, make_program

    maker = make_program(GridConfig(patch_rows=2, patch_cols=2, m=4, iterations=2))
    trace = measure(maker(4), 4, name="grid")
    outcome = extrapolate(trace, presets.cm5())
    assert outcome.predicted_time > 0
    assert repro.__version__


def test_all_public_names_importable():
    import repro

    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def _tutorial_program(rt):
    """The docs/TUTORIAL.md program (3 steps instead of 10)."""
    from repro.pcxx import Collection, make_distribution

    n = rt.n_threads
    seg = Collection(
        "seg", make_distribution(n, n, "block"), element_nbytes=1024
    )
    for t in range(n):
        seg.poke(t, [0.0] * 128)

    def body(ctx):
        for step in range(3):
            yield from ctx.compute(2000)
            if n > 1:
                yield from ctx.get(seg, (ctx.tid + 1) % n, nbytes=64)
            yield from ctx.barrier()

    return body


def test_tutorial_program_shape():
    """The docs/TUTORIAL.md program runs as written (scaled down)."""
    from repro import measure

    trace = measure(_tutorial_program, 8, name="mine")
    assert trace.barrier_count() == 3
    assert trace.race_findings == []


def test_tutorial_fewer_processors_than_threads():
    """docs/TUTORIAL.md §6, scaled down: 8 threads on 2 CPUs."""
    from repro import measure, presets, simulate, translate
    from repro.sim import assign_threads

    tp = translate(measure(_tutorial_program, 8, name="mine"))
    params = presets.cm5()
    res = simulate(tp, params, assignment=assign_threads(8, 2))
    assert res.n_processors == 2 and len(res.threads) == 8
    assert 0.0 < res.utilization() <= 1.0
    # Block packing: 3 of every 4 neighbour reads stay on one CPU.
    assert res.local_accesses() == 3 * 6
    # As many CPUs as threads is the paper's model itself.
    full = simulate(tp, params, assignment=assign_threads(8, 8))
    assert full.execution_time == simulate(tp, params).execution_time


def test_tutorial_scaling_study():
    """docs/TUTORIAL.md §5's scaling study, scaled down."""
    from repro import measure, presets
    from repro.metrics import speedups
    from repro.sweep import extrapolate_many

    params = presets.cm5()
    counts = (1, 2, 4)
    traces = [measure(_tutorial_program, n, name="mine") for n in counts]
    records = extrapolate_many([(t, params) for t in traces], jobs=2)
    times = {n: r["predicted_time_us"] for n, r in zip(counts, records)}
    curve = speedups(times)
    assert list(curve) == [1, 2, 4] and curve[1] == 1.0
    assert all(v > 0 for v in curve.values())
    # Fixed work per thread: more processors add messages, not speed.
    assert records[0]["message_count"] == 0 < records[2]["message_count"]
