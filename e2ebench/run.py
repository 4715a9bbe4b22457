"""End-to-end and per-layer benchmark of the extrapolator.

Run from the repository root::

    python3 e2ebench/run.py --workload predict_full --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs the timed closed loop untraced, checks outputs and prints
the end-to-end metrics.  Their times are host-adjusted: each op and
set-up is paired with a fixed reference loop timed just before it, and
the part of its wall time the process spent computing is rescaled to a
reference host speed (see :func:`host_adjusted`); the plain wall-clock
figures are printed beside them.  ``--trace 1`` alternates traced and
untraced blocks of ops on one set-up, replays the first ops on a fresh
set-up to prove the exact counters repeat, writes the spans as a Chrome
trace under ``.e2ebench_out/`` and prints the per-layer metrics.  Every
metric is printed with its unit and sample count; the last line of
stdout is one JSON object.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402

try:
    from workloads import ACCURACY_POINTS, WORKLOADS, sampled_error
except ModuleNotFoundError as exc:  # run outside a checkout with src/
    sys.exit(f"e2ebench: cannot import the program from {ROOT / 'src'}: {exc}")

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: ops, from the first, over which the traced run's counters must repeat
EXACT_OPS = 16
#: traced blocks (each followed by an untraced one) in a traced run
TRACE_BLOCKS = 3
#: the p90 needs this many ops to leave ten samples beyond it
P90_MIN_OPS = 100
#: passes of the reference loop timed before each op and each set-up
REF_PASSES = 60_000
#: the reference loop's time at the reference host speed, to which the
#: end-to-end times are adjusted (about this host's usual speed)
REF_LOOP_S = 0.005

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_per_s", "ops/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
    ("estimate_rel_error", "ratio"),
)

#: time layers report mean self time per op (span name + "_s")
TIME_LAYERS = (
    "trace.read", "trace.digest", "core.translate", "sim.simulate",
    "metrics.report", "metrics.record", "cli.self",
    "sampling.split", "sampling.plan", "sampling.represent", "sampling.estimate",
    "sweep.cache_get", "sweep.cache_put", "sweep.self",
    "serve.validate", "serve.service", "serve.http",
)
#: counters that must repeat exactly across runs of one seed
EXACT_COUNTS = (
    "trace.events", "sim.events", "sampling.plans_built",
    "sampling.events_simulated", "sweep.cache_lookups", "sweep.cache_hits",
    "serve.requests", "serve.hits",
)
PER_LAYER = (
    *((f"{name}_s", "s") for name in TIME_LAYERS),
    ("trace.events", "count"),
    ("sim.events", "count"),
    ("sim.us_per_event", "us"),
    ("sampling.plans_built", "count"),
    ("sampling.events_simulated", "count"),
    ("sweep.cache_hit_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("traced.latency_s", "s"),
    ("tracing.overhead_ratio", "ratio"),
    ("host.calib_s", "s"),
)


class BenchmarkError(Exception):
    """The benchmark itself misbehaved (not the program under test)."""


def ref_loop(passes: int = REF_PASSES) -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(passes):
        acc += k * k % 7
    return time.perf_counter() - t0


def host_calib() -> float:
    """Median time of a 300 000-pass reference loop; diagnostic only."""
    return statistics.median(ref_loop(300_000) for _ in range(3))


def host_adjusted(wall: float, cpu: float, loop_s: float) -> float:
    """``wall`` with its computing part rescaled to the reference host speed.

    ``cpu`` is the process CPU time spent in the same interval and
    ``loop_s`` the reference loop's time just before it.  The host's
    speed drifts by up to a third over minutes and scales computing
    time, not time spent waiting (serve's delayed-ACK stall), so only
    the computing part is rescaled: by ``REF_LOOP_S / loop_s``.
    """
    cpu = min(cpu, wall)
    return wall - cpu + cpu * REF_LOOP_S / loop_s


def timed_loop(op, seconds: float, min_ops: int = 0, first: int = 0,
               raw: Optional[list] = None):
    """Closed loop from op ``first``: op ``i`` starts when ``i - 1`` returns.

    Returns per-op latencies, the indices of ops that failed, and the
    loop's wall time.  Given a ``raw`` list, each op is preceded by a
    timed reference loop, its latency is :func:`host_adjusted` and its
    wall-clock latency is appended to ``raw``.
    """
    adjust = raw is not None
    latencies, failed = [], set()
    t0 = time.perf_counter()
    i = first
    while time.perf_counter() - t0 < seconds or i - first < min_ops:
        loop_s = ref_loop() if adjust else 0.0
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            ok = op(i)
        except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
            traceback.print_exc()
            ok = False
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        latencies.append(host_adjusted(wall, cpu, loop_s) if adjust else wall)
        if adjust:
            raw.append(wall)
        if not ok:
            failed.add(i)
        i += 1
    return latencies, failed, time.perf_counter() - t0


def untraced_run(cls, seed: int, seconds: float, workdir: Path):
    """Set up ``SETUP_REPEATS`` times, then run the timed loop untraced.

    Returns the op counts, the end-to-end metrics (times host-adjusted)
    and the same times as measured on the wall clock, for the record.
    """
    setups, raw_setups = [], []
    for k in range(SETUP_REPEATS):
        path = workdir / f"setup{k}"
        path.mkdir(parents=True)
        loop_s = ref_loop()
        cpu = time.process_time()
        t0 = time.perf_counter()
        wl = cls(seed, path)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu
        loop_s = (loop_s + ref_loop()) / 2
        setups.append(host_adjusted(wall, cpu, loop_s))
        raw_setups.append(wall)
        if k < SETUP_REPEATS - 1:
            wl.close()
    raw = []
    try:
        latencies, failed, _ = timed_loop(wl.op, seconds, raw=raw)
        failed |= wl.check(len(latencies))
        error = sampled_error(wl.trace)
    finally:
        wl.close()
    n = len(latencies)
    if n < P90_MIN_OPS:
        print(f"warning: {n} ops leave fewer than ten samples beyond p90",
              file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def times(setup, lat):
        return {
            "setup_s": (statistics.median(setup), len(setup)),
            # one client, so ops / summed op latency (reference loops excluded)
            "throughput_ops_per_s": (n / sum(lat), n),
            "latency_p50_s": (statistics.median(lat), n),
            "latency_p90_s": (statistics.quantiles(lat, n=10)[-1], n),
        }

    # name -> (value, sample count)
    metrics = {
        **times(setups, latencies),
        "success_rate": ((n - len(failed)) / n, n),
        "peak_rss_mb": (rss_mb, 1),
        "estimate_rel_error": (error, len(ACCURACY_POINTS)),
    }
    return n, len(failed), metrics, times(raw_setups, raw)


def _op_counts(rec: spans.SpanRecorder, first: int, count: int) -> list:
    return [
        {k: rec.counts[op][k] for k in EXACT_COUNTS}
        for op in range(first, first + count)
    ]


def traced_run(cls, seed: int, seconds: float, workdir: Path, out: Path):
    """Alternate traced and untraced blocks of ops on one set-up.

    Interleaving puts both sides of ``tracing.overhead_ratio`` under the
    same host speed, which drifts over tens of seconds.  The first
    block is traced, so traced op ``j < EXACT_OPS`` is workload op ``j``.
    """
    rec = spans.SpanRecorder()

    def traced(wl):
        def op(i):
            with rec.op(cls.root_layer):
                return wl.op(i)
        return op

    def run_traced(wl, block_s, min_ops, first):
        patches = spans.install(rec)
        try:
            return timed_loop(traced(wl), block_s, min_ops, first)
        finally:
            patches.restore()

    block_s = seconds / (2 * TRACE_BLOCKS)
    ops = {True: 0, False: 0}
    walls = {True: 0.0, False: 0.0}
    failed = set()
    path = workdir / "traced"
    path.mkdir(parents=True)
    wl = cls(seed, path)
    try:
        done = 0
        for block in range(2 * TRACE_BLOCKS):
            is_traced = block % 2 == 0
            if is_traced:
                min_ops = EXACT_OPS if block == 0 else 0
                lat, bad, wall = run_traced(wl, block_s, min_ops, done)
            else:
                lat, bad, wall = timed_loop(wl.op, block_s, 0, done)
            done += len(lat)
            ops[is_traced] += len(lat)
            walls[is_traced] += wall
            failed |= bad
        failed |= wl.check(done)
    finally:
        wl.close()
    n = ops[True]
    # Replay the first ops on a fresh set-up: exact counters must match.
    path = workdir / "replay"
    path.mkdir(parents=True)
    wl = cls(seed, path)
    try:
        _, replay_failed, _ = run_traced(wl, 0, EXACT_OPS, 0)
    finally:
        wl.close()
    if replay_failed:
        raise BenchmarkError(f"replayed ops failed: {sorted(replay_failed)}")
    original = _op_counts(rec, 0, EXACT_OPS)
    replayed = _op_counts(rec, n, EXACT_OPS)
    if original != replayed:
        diff = next(j for j in range(EXACT_OPS) if original[j] != replayed[j])
        raise BenchmarkError(
            f"exact counters differ on replay of op {diff}: "
            f"{original[diff]} vs {replayed[diff]}"
        )

    # Replay spans were recorded last, so the main loop's are a prefix.
    main_spans = [s for s in rec.spans if s.op < n]
    per_layer = defaultdict(float)
    per_op_self = defaultdict(float)
    for s, own in zip(main_spans, spans.self_times(main_spans)):
        per_layer[s.name] += own
        per_op_self[s.op] += own
    roots = [s for s in main_spans if s.parent < 0]
    for s in roots:
        latency = s.end - s.start
        if abs(per_op_self[s.op] - latency) > 1e-9 * (1 + latency):
            raise BenchmarkError(
                f"op {s.op}: self times sum to {per_op_self[s.op]!r}, "
                f"traced latency is {latency!r}"
            )
    exact = Counter()
    for counts in original:
        exact.update(counts)
    all_events = sum(rec.counts[op]["sim.events"] for op in range(n))

    def ratio(hits, lookups):
        return exact[hits] / exact[lookups] if exact[lookups] else 0.0

    metrics = {f"{name}_s": (per_layer[name] / n, n) for name in TIME_LAYERS}
    for name in ("trace.events", "sim.events", "sampling.plans_built",
                 "sampling.events_simulated"):
        metrics[name] = (exact[name] / EXACT_OPS, EXACT_OPS)
    metrics["sim.us_per_event"] = (
        per_layer["sim.simulate"] / all_events * 1e6 if all_events else 0.0,
        all_events,
    )
    metrics["sweep.cache_hit_ratio"] = (
        ratio("sweep.cache_hits", "sweep.cache_lookups"), EXACT_OPS)
    metrics["serve.cache_hit_ratio"] = (
        ratio("serve.hits", "serve.requests"), EXACT_OPS)
    metrics["traced.latency_s"] = (sum(s.end - s.start for s in roots) / n, n)
    metrics["tracing.overhead_ratio"] = (
        (n / walls[True]) / (ops[False] / walls[False]), n)

    rec.spans = main_spans
    spans.write_chrome_trace(
        rec, out / f"{cls.name}-seed{seed}.trace.json",
        program=cls.name, label=f"seed {seed}",
    )
    return done, len(failed), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]

    cwd = Path.cwd()
    workdir = cwd / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    calib = host_calib()
    try:
        if args.trace:
            attempted, failed, metrics = traced_run(
                cls, args.seed, args.seconds, workdir, cwd / ".e2ebench_out")
            metrics["host.calib_s"] = (calib, 3)
            names = PER_LAYER
        else:
            attempted, failed, metrics, wall_clock = untraced_run(
                cls, args.seed, args.seconds, workdir)
            names = END_TO_END
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  "
          f"host.calib_s={calib:.4f}")
    for name, unit in names:
        value, n = metrics[name]
        print(f"  {name:28s} {value:14.6g} {unit:6s} n={n}")
    if not args.trace:
        print("wall clock, not host-adjusted (not gated):")
        for name, (value, n) in wall_clock.items():
            print(f"  {name:28s} {value:14.6g}        n={n}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": unit}
            for name, unit in names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
