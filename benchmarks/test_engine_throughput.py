"""DES engine and pipeline throughput micro-benchmarks.

Not a paper figure: keeps an eye on the simulator's own performance
("the trade-off in accuracy can be found in the utility and *speed* of
extrapolation"), so regressions in the substrate show up here.
"""

from repro.core import presets
from repro.core.pipeline import extrapolate, measure
from repro.experiments.paramsets import suite_configs
from repro.bench import BENCHMARKS
from repro.perf.bench import pingpong, timeout_chain


def test_event_loop_throughput(benchmark):
    """Two callback chains bouncing a token through stores."""
    events = benchmark(pingpong, 500)
    assert events == 2000  # a get and a timeout per player per round


def test_timeout_only_fast_path_throughput(benchmark):
    """The event loop on the Timeout-only workload."""
    events = benchmark(timeout_chain, 2000)
    assert events == 2000


def test_profiled_run_collects_counters(run_once):
    """Profiling overhead stays bounded and the counters are complete."""
    from repro.perf.bench import simulator_replay

    def run():
        from repro.core import presets
        from repro.core.pipeline import measure
        from repro.core.translation import translate
        from repro.pcxx import Collection, make_distribution
        from repro.sim.simulator import Simulator

        def program(rt):
            n = rt.n_threads
            coll = Collection(
                "c", make_distribution(n, n, "block"), element_nbytes=64
            )
            for i in range(n):
                coll.poke(i, i)

            def body(ctx):
                for it in range(6):
                    yield from ctx.compute_us(100.0 * ((ctx.tid + it) % 3 + 1))
                    yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
                    yield from ctx.barrier()

            return body

        tp = translate(measure(program, 8, name="bench"))
        sim = Simulator(tp, presets.distributed_memory(), profile=True)
        sim.run()
        return sim

    sim = run_once(run)
    profile = sim.profile
    assert profile.counters.events_total == sim.env.processed_event_count
    assert profile.counters.events_total == simulator_replay(8)
    print(f"\n  {profile.format()}")


def test_full_pipeline_grid_16(run_once):
    cfg = suite_configs(quick=True)["grid"]
    maker = BENCHMARKS["grid"].make_program(cfg)

    def pipeline():
        trace = measure(maker(16), 16, name="grid", size_mode="actual")
        return extrapolate(trace, presets.distributed_memory())

    outcome = run_once(pipeline)
    assert outcome.predicted_time > 0
    print(
        f"\n  grid@16: {len(outcome.trace)} events -> "
        f"{outcome.result.network.messages} messages simulated"
    )
