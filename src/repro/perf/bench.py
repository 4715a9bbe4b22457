"""Engine benchmark harness: the perf trajectory behind ``BENCH_engine.json``.

Six seeded reference workloads exercise the layers of the hot path:

* ``timeout_chain`` — the pure dispatch loop: one step re-queued with
  ``call_in``, the timed wait of the replay and the reference machine;
* ``pingpong`` — two call chains bouncing a token through stores
  (``Store.get_then`` and ``call_in``, the receive and reply path of
  both models);
* ``simulator`` — a full trace-driven replay (8 processors, the
  distributed-memory preset) through :class:`repro.sim.Simulator`;
* ``sweep`` — a cold-then-warm design-space sweep through
  :func:`repro.sweep.run_sweep` (points/s plus warm-cache hit rate);
* ``serve`` — warm-cache ``POST /v1/predict`` requests against an
  in-process :mod:`repro.serve` server (memoized requests/s over HTTP);
* ``diagnose`` — repeated :func:`repro.diagnose.diagnose` passes over
  one observed replay's timeline (spans scanned/s through the
  per-processor span index);
* ``sampling`` — SimPoint-style sampled extrapolation vs the full
  simulation of one matmul trace (speedup × relative error through
  :func:`repro.sampling.estimate_sampled`), plus the estimate with its
  plan reused and the per-point time of a sampled sweep.

:func:`run_benchmarks` times each (best of N repeats, with the median
and interquartile range of the repeats beside it) and
:func:`write_baseline` persists the result as ``BENCH_engine.json`` so
future changes have a committed trajectory to regress against (see
``tests/test_perf_smoke.py``).  Run it via ``extrap bench``.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path
from typing import Dict

from repro.util.atomic import atomic_write_text

SCHEMA_VERSION = 1

#: Default baseline location: the repository/working-directory root.
DEFAULT_BASELINE = "BENCH_engine.json"


# -- reference workloads ---------------------------------------------------


def timeout_chain(n: int = 20_000) -> int:
    """One step re-queueing itself ``n`` times with ``call_in``: the
    pure dispatch loop."""
    from repro.des import Environment

    env = Environment()
    left = n

    def sleep(_arg) -> None:
        nonlocal left
        if left:
            left -= 1
            env.call_in(1.0, sleep)

    sleep(None)
    env.run()
    return env.processed_event_count


def pingpong(rounds: int = 5_000) -> int:
    """Two call chains bouncing a token through stores."""
    from repro.des import Environment, Store

    env = Environment()

    def player(store_in, store_out) -> None:
        left = rounds

        def got(_item) -> None:
            env.call_in(1.0, passed)

        def passed(_arg) -> None:
            nonlocal left
            store_out.put_nowait(None)
            left -= 1
            if left:
                store_in.get_then(got)

        store_in.get_then(got)

    a, b = Store(env), Store(env)
    player(a, b)
    player(b, a)
    a.put_nowait(None)
    env.run()
    return env.processed_event_count


def simulator_replay(n_threads: int = 8, iters: int = 6) -> int:
    """A full extrapolation replay on the distributed-memory preset."""
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
            for it in range(iters):
                yield from ctx.compute_us(100.0 * ((ctx.tid + it) % 3 + 1))
                yield from ctx.get(coll, (ctx.tid + 1) % n, nbytes=8)
                yield from ctx.barrier()

        return body

    tp = translate(measure(program, n_threads, name="bench"))
    sim = Simulator(tp, presets.distributed_memory())
    sim.run()
    return sim.env.processed_event_count


def sweep_points(n_points: int = 8) -> dict:
    """A sweep run cold then warm: executor throughput + cache hit rate.

    Counts one "event" per evaluated point (cold pass executes, warm
    pass should be all cache hits), so events/s is sweep points/s.
    """
    import tempfile

    from repro.bench.suite import get_benchmark
    from repro.core.pipeline import measure
    from repro.sweep import ResultCache, SweepSpec, run_sweep

    info = get_benchmark("embar")
    trace = measure(info.make_program()(4), 4, name="embar")
    spec = SweepSpec.from_dict(
        {
            "name": "bench",
            "preset": "cm5",
            "grid": {
                "network.hop_time": [0.25 * (i + 1) for i in range(n_points)]
            },
        }
    )
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        run_sweep(spec, trace=trace, cache=cache)
        warm = run_sweep(spec, trace=trace, cache=cache)
    return {
        "events": 2 * len(spec),
        "cache_hit_rate": warm.counters.hit_rate,
    }


def serve_requests(n_requests: int = 32) -> dict:
    """The serve API's hot path: warm-cache predicts over real HTTP.

    One in-process :class:`~repro.serve.http.ExtrapServer` on an
    ephemeral loopback port; the first request populates the result
    cache and the timed loop replays it, so events/s is memoized
    requests/s end-to-end (HTTP parse, validation, cache lookup, JSON
    response).
    """
    import http.client
    import tempfile

    from repro.bench.suite import get_benchmark
    from repro.core.pipeline import measure
    from repro.serve import ExtrapService, start_server
    from repro.sweep import ResultCache
    from repro.trace import write_trace

    info = get_benchmark("embar")
    trace = measure(info.make_program()(4), 4, name="embar")
    body = json.dumps({"trace_path": "t.jsonl", "preset": "cm5"})
    with tempfile.TemporaryDirectory() as tmp:
        write_trace(trace, Path(tmp) / "t.jsonl")
        service = ExtrapService(trace_root=tmp, cache=ResultCache(Path(tmp) / "c"))
        server, thread = start_server(service, port=0)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port)
            warm_hit_latency = float("inf")
            for _ in range(n_requests):
                t0 = time.perf_counter()
                conn.request("POST", "/v1/predict", body=body)
                resp = conn.getresponse()
                payload = resp.read()
                if resp.status != 200:
                    raise RuntimeError(f"predict failed: {resp.status} {payload!r}")
                warm_hit_latency = min(
                    warm_hit_latency, time.perf_counter() - t0
                )
            conn.close()
            hits, misses = service.cache.hits, service.cache.misses
        finally:
            server.shutdown()
            thread.join()
            server.close(drain=False)
    return {
        "events": n_requests,
        "cache_hit_rate": hits / (hits + misses),
        "warm_hit_latency_s": warm_hit_latency,
    }


def diagnose_passes(n_passes: int = 32) -> dict:
    """Repeated diagnosis of one observed replay's timeline.

    Builds the timeline once (a 16-processor ``cyclic`` replay with
    ``observe=True``), then runs the full detector catalog ``n_passes``
    times; events/s is timeline spans scanned per second, which is what
    the per-processor span index precomputed at ``finalize()`` feeds.
    """
    from repro.bench.suite import get_benchmark
    from repro.core import presets
    from repro.core.pipeline import extrapolate, measure
    from repro.diagnose import diagnose

    info = get_benchmark("cyclic")
    trace = measure(info.make_program()(16), 16, name="cyclic")
    outcome = extrapolate(trace, presets.distributed_memory(), observe=True)
    timeline = outcome.result.timeline
    n_findings = 0
    for _ in range(n_passes):
        n_findings = len(diagnose(timeline).findings)
    return {
        "events": n_passes * len(timeline.spans),
        "findings": n_findings,
    }


def sampling_estimate(n_threads: int = 8, sweep_points: int = 16) -> dict:
    """Sampled vs full extrapolation of one matmul trace.

    Times, inside the workload body, one full simulation, one sampled
    estimate on a cold :class:`~repro.core.pipeline.PreparedTrace`
    (split and clustering included), a second estimate reusing that
    plan, and a ``sweep_points``-point sampled :func:`run_sweep` that
    starts from an empty prepared-trace memo.  The record carries:
    ``speedup`` (full seconds / cold sampled seconds; a fresh prepared
    trace every repeat, so a warm memo cannot inflate it), ``warm_s``
    (the estimate with its plan reused), ``sweep_point_ms`` (wall time
    per point of the sweep, one plan build amortised over its points)
    and ``rel_error`` (sampled vs full predicted time).  Events/s counts
    the trace events covered by all of these runs.
    """
    from repro.bench.suite import get_benchmark
    from repro.core import presets
    from repro.core.memo import PREPARED
    from repro.core.pipeline import PreparedTrace, extrapolate, measure
    from repro.sampling import SamplingConfig, estimate_sampled
    from repro.sweep import SweepSpec, run_sweep

    trace = measure(
        get_benchmark("matmul").make_program()(n_threads),
        n_threads,
        name="matmul",
    )
    params = presets.distributed_memory()
    config = SamplingConfig(seed=0)
    t0 = time.perf_counter()
    full = extrapolate(trace, params)
    full_s = time.perf_counter() - t0
    prepared = PreparedTrace(trace)
    t0 = time.perf_counter()
    sampled = estimate_sampled(prepared, params, config)
    sampled_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    estimate_sampled(prepared, params, config)
    warm_s = time.perf_counter() - t0
    spec = SweepSpec.from_dict(
        {
            "name": "bench-sampled",
            "preset": "distributed_memory",
            "grid": {
                "network.hop_time": [
                    0.25 * (i + 1) for i in range(sweep_points)
                ]
            },
            "sample": config.canonical_dict(),
        }
    )
    PREPARED.clear()
    t0 = time.perf_counter()
    run_sweep(spec, trace=trace)
    sweep_point_ms = (time.perf_counter() - t0) / sweep_points * 1e3
    rel_error = (
        abs(sampled.predicted_time - full.predicted_time) / full.predicted_time
        if full.predicted_time
        else 0.0
    )
    return {
        "events": (3 + sweep_points) * len(trace.events),
        "speedup": full_s / sampled_s if sampled_s > 0 else None,
        "warm_s": warm_s,
        "sweep_point_ms": sweep_point_ms,
        "rel_error": rel_error,
        "events_simulated": sampled.events_simulated,
        "events_total": len(trace.events),
    }


#: name -> (workload(scaled_size) -> processed event count, base size).
#: A workload may instead return a dict with an ``"events"`` key plus
#: extra metrics to merge into its results record.
WORKLOADS: Dict[str, tuple] = {
    "timeout_chain": (timeout_chain, 20_000),
    "pingpong": (pingpong, 5_000),
    "simulator": (simulator_replay, 8),
    "sweep": (sweep_points, 8),
    "serve": (serve_requests, 32),
    "diagnose": (diagnose_passes, 32),
    "sampling": (sampling_estimate, 16),
}


# -- harness ----------------------------------------------------------------


def run_benchmarks(
    *, scale: float = 1.0, repeats: int = 3, workloads=None
) -> dict:
    """Time every workload; best-of-``repeats`` wall time per workload.

    Each record also carries ``median_s`` and ``iqr_s``, the median and
    interquartile range (inclusive quartiles; 0 for one repeat) of the
    repeats' wall times, so a noisy row shows as one: the best alone
    hides the spread.

    ``scale`` shrinks the per-workload problem size (events scale with
    it for the micro workloads; the simulator workload keeps its shape).
    Returns a JSON-serialisable result dict.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    results: Dict[str, dict] = {}
    selected = WORKLOADS if workloads is None else {
        name: WORKLOADS[name] for name in workloads
    }
    # These keep their shape under --scale: the simulator replay's
    # structure is its workload, and the sweep/serve fixed overhead
    # (trace measurement, the cold first request) would otherwise
    # dominate at small sizes.
    fixed_shape = ("simulator", "sweep", "serve", "diagnose", "sampling")
    for name, (fn, base_size) in selected.items():
        size = base_size if name in fixed_shape else max(1, int(base_size * scale))
        fn(size)  # warm-up run (imports, allocator)
        times = []
        out = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn(size)
            times.append(time.perf_counter() - t0)
        best = min(times)
        iqr = 0.0
        if repeats > 1:
            q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
            iqr = q3 - q1
        if isinstance(out, dict):
            events = out["events"]
            extras = {k: v for k, v in out.items() if k != "events"}
        else:
            events, extras = out, {}
        results[name] = {
            "size": size,
            "events": events,
            "best_s": best,
            "median_s": statistics.median(times),
            "iqr_s": iqr,
            "events_per_s": events / best if best > 0 else None,
            **extras,
        }
    return {
        "schema": SCHEMA_VERSION,
        "python": platform.python_version(),
        "scale": scale,
        "repeats": repeats,
        "workloads": results,
    }


def write_baseline(
    results: dict, path: str | Path = DEFAULT_BASELINE, *, merge: bool = False
) -> Path:
    """Persist a benchmark result as the committed baseline.

    With ``merge``, the workloads that were run replace their rows in
    the baseline already at ``path`` and every other row is kept, so
    refreshing one workload (``extrap bench --only W --update-baseline``)
    leaves the rest of the trajectory alone.  A missing or unreadable
    baseline is simply replaced.
    """
    path = Path(path)
    if merge:
        try:
            kept = load_baseline(path)["workloads"]
        except (OSError, ValueError, KeyError):
            kept = {}
        results = {**results, "workloads": {**kept, **results["workloads"]}}
    atomic_write_text(path, json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: str | Path = DEFAULT_BASELINE) -> dict:
    """Load a committed baseline; raises FileNotFoundError if absent."""
    path = Path(path)
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported benchmark schema {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return data


def format_results(results: dict, baseline: dict | None = None) -> str:
    """Human-readable table, optionally with speedup vs. a baseline."""
    lines = [
        "engine benchmarks (best of %d; median [IQR] of the repeats):"
        % results.get("repeats", 1)
    ]
    base_wl = (baseline or {}).get("workloads", {})
    for name, r in results["workloads"].items():
        rate = r["events_per_s"]
        line = (
            f"  {name:14s} {r['events']:>8d} events  "
            f"{r['best_s'] * 1e3:8.2f} ms  {rate:>12,.0f} events/s"
        )
        if "median_s" in r:
            line += (
                f"  median {r['median_s'] * 1e3:.2f} ms "
                f"[IQR {r['iqr_s'] * 1e3:.2f} ms]"
            )
        ref = base_wl.get(name, {}).get("events_per_s")
        if ref:
            line += f"  ({rate / ref:.2f}x baseline)"
        if "cache_hit_rate" in r:
            line += f"  [warm hit rate {r['cache_hit_rate']:.0%}]"
        if "speedup" in r and r["speedup"] is not None:
            line += (
                f"  [sampled {r['speedup']:.1f}x faster, "
                f"rel err {r['rel_error']:.2%}]"
            )
        if "sweep_point_ms" in r:
            line += (
                f"  [plan reused {r['warm_s'] * 1e3:.1f} ms, "
                f"sampled sweep {r['sweep_point_ms']:.1f} ms/point]"
            )
        lines.append(line)
    return "\n".join(lines)

