"""Interleaved in-process A/B of replay CPU time between two code versions.

Two separate benchmark runs differ by more than the few percent a
replay-path change moves.  This script loads both versions of the
``repro`` package into one interpreter and alternates them round by
round, so host drift cancels in the per-round ratio::

    python benchmarks/replay_ab.py 341328e HEAD --rounds 40
    python benchmarks/replay_ab.py /path/to/a/src /path/to/b/src

Each version is a git revision (exported with ``git archive``) or a
directory holding the ``repro`` package.  Each one builds its own
translated program per workload; each round then times one
``simulate()`` per version per workload in thread CPU time, after a
``gc.collect()``, with the version that goes first alternating.  One
more fixed row times the cold front end with the replay: grid@16
written once as ``.jsonl``, then ``read_trace`` -> ``translate`` ->
``simulate`` per round, so a change to the reader or to the per-event
records shows too.  A fixed row, ``machine``, times
``run_on_machine`` on matmul@16 under ``CM5_SPEC`` (the reference
machine of Figure 9), ``measure`` times the 1-processor tracing run
of grid@16 (the trace ``predict_full`` sets up), and a last one,
``predict``, times the whole ``extrap predict`` of that ``.jsonl`` file
in-process (``cli.main``, stdout captured): parser, read, translation,
replay and report.  Before timing, the two versions' results must
agree in everything the replay goldens hash: the predicted time, every
thread's output events, the processor stats and the network stats,
and, on the front-end row, every event read from the file; on the
``machine`` row, the whole ``MachineResult``; on the ``measure`` row,
the trace digest and race findings; on the ``predict`` row, stdout
byte for byte.  Printed per workload: the median and interquartile
range of the B/A time ratios, in how many rounds B was faster, each
version's median time, and how many unreachable objects one call of
each version leaves to the cyclic collector (counted once, with the
collector off, after the warm-up; the timed calls collect first, so
their times do not show that garbage).  ``python
benchmarks/replay_ab.py src src --rounds 2`` checks that the tool
itself still runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: ``(benchmark, threads, preset, processors, policy)``: the replays of
#: the three e2ebench workloads, then grid under flag barriers, with two
#: threads per processor (the k > 1 scheduler) and under the ``poll``
#: policy (``None`` keeps the preset's policy).
WORKLOADS = (
    ("grid", 16, "distributed_memory", 16, None),
    ("matmul", 8, "distributed_memory", 8, None),
    ("sparse", 8, "distributed_memory", 8, None),
    ("grid", 16, "shared_memory", 16, None),
    ("grid", 16, "distributed_memory", 8, None),
    ("grid", 16, "distributed_memory", 16, "poll"),
)

#: The front-end row, timed after ``WORKLOADS``: its trace is read from
#: a ``.jsonl`` file and translated in every timed call.
READ_WORKLOAD = ("grid", 16, "distributed_memory", 16, None)
READ_ROW = len(WORKLOADS)

#: The ``machine`` row, timed last: ``run_on_machine`` of this
#: benchmark on this many nodes under ``CM5_SPEC``.
MACHINE_WORKLOAD = ("matmul", 16)
MACHINE_ROW = READ_ROW + 1

#: The ``measure`` row, timed after it: ``measure`` of this benchmark
#: on this many threads.
MEASURE_WORKLOAD = ("grid", 16)
MEASURE_ROW = MACHINE_ROW + 1

#: The ``predict`` row, timed last: ``extrap predict`` of the front-end
#: row's ``.jsonl`` file under this preset, run through ``cli.main``.
PREDICT_WORKLOAD = ("grid", 16, "distributed_memory")
PREDICT_ROW = MEASURE_ROW + 1


def label(workload, i: int) -> str:
    if i == MACHINE_ROW:
        name, n = workload
        return f"machine: {name}@{n} run_on_machine CM5_SPEC"
    if i == MEASURE_ROW:
        name, n = workload
        return f"measure: {name}@{n} 1-processor trace"
    if i == PREDICT_ROW:
        name, n, preset = workload
        return f"predict: extrap predict {name}@{n}.jsonl --preset {preset}"
    name, n, preset, m, policy = workload
    text = f"{name}@{n} {preset}"
    if i == READ_ROW:
        text += " read+translate+simulate (.jsonl)"
    if m != n:
        text += f" on {m} processors"
    if policy is not None:
        text += f" policy={policy}"
    return text


def result_digest(result, read_events=()) -> str:
    """sha256 over what the replay goldens pin of a result, plus the
    events read from a trace file (front-end row)."""
    doc = {
        "read": [
            (ev.time, ev.thread, ev.kind.value, ev.barrier_id, ev.owner,
             ev.nbytes, ev.collection, ev.tag)
            for ev in read_events
        ],
        "execution_time": result.execution_time,
        "threads": [
            [
                (ev.time, ev.thread, ev.kind.value, ev.barrier_id, ev.owner,
                 ev.nbytes, ev.collection, ev.tag)
                for ev in thread.events
            ]
            for thread in result.threads
        ],
        "processors": [dataclasses.asdict(p) for p in result.processors],
        "network": dataclasses.asdict(result.network),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def machine_digest(result) -> str:
    """sha256 over everything a ``MachineResult`` measures."""
    doc = {
        "execution_time": result.execution_time,
        "nodes": [dataclasses.asdict(nd) for nd in result.nodes],
        "threads": [
            [
                (ev.time, ev.thread, ev.kind.value, ev.barrier_id, ev.owner,
                 ev.nbytes, ev.collection, ev.tag)
                for ev in thread.events
            ]
            for thread in result.threads
        ],
        "messages": result.messages,
        "message_bytes": result.message_bytes,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def row_digest(i: int, result, read_events) -> str:
    if i == MACHINE_ROW:
        return machine_digest(result)
    if i == MEASURE_ROW:
        return result.digest() + repr(result.race_findings)
    if i == PREDICT_ROW:
        return result  # the captured stdout itself
    return result_digest(result, read_events)


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def source_dir(version: str, scratch: Path) -> str:
    """A directory holding the ``repro`` package of ``version``."""
    path = Path(version)
    if (path / "repro").is_dir():
        return str(path.resolve())
    blob = subprocess.run(
        ["git", "-C", str(REPO), "archive", version, "src"],
        check=True,
        capture_output=True,
    ).stdout
    out = scratch / version.replace("/", "_")
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(out)
    return str(out / "src")


class Version:
    """One imported copy of ``repro`` and its prepared workloads.

    ``trace_path`` is the front-end row's ``.jsonl`` file; the first
    version writes it, so every version reads the same bytes.
    """

    def __init__(self, src: str, trace_path: Path):
        for name in [n for n in sys.modules if _is_repro(n)]:
            del sys.modules[name]
        sys.path.insert(0, src)
        try:
            from repro import cli
            from repro.bench.suite import get_benchmark
            from repro.core import presets
            from repro.core.pipeline import measure
            from repro.core.translation import translate
            from repro.machine import CM5_SPEC, run_on_machine
            from repro.sim.simulator import assign_threads, simulate
            from repro.trace.io import read_trace, write_trace
        finally:
            sys.path.remove(src)
        self.simulate = simulate
        self.read_trace = read_trace
        self.translate = translate
        self.trace_path = trace_path
        self.cases = []
        for name, n, preset, m, policy in WORKLOADS:
            program = get_benchmark(name).make_program()(n)
            tp = translate(measure(program, n, name=name))
            params = presets.by_name(preset)
            if policy is not None:
                params = params.with_(processor={"policy": policy})
            assignment = assign_threads(n, m) if m != n else None
            self.cases.append((tp, params, assignment))
        name, n, preset, _, _ = READ_WORKLOAD
        if not trace_path.exists():
            program = get_benchmark(name).make_program()(n)
            write_trace(measure(program, n, name=name), trace_path)
        self.read_params = presets.by_name(preset)
        name, n = MACHINE_WORKLOAD
        self.machine_program = get_benchmark(name).make_program()
        self.run_on_machine = run_on_machine
        self.cm5_spec = CM5_SPEC
        self.measure = measure
        name, n = MEASURE_WORKLOAD
        self.measure_program = get_benchmark(name).make_program()
        self.cli_main = cli.main
        self.modules = {n: m for n, m in sys.modules.items() if _is_repro(n)}
        for name in self.modules:
            del sys.modules[name]

    def time(self, i: int):
        """Thread CPU seconds, result and read events of row ``i`` (the
        ``predict`` row's result is its exit code and stdout)."""
        sys.modules.update(self.modules)  # lazy imports resolve to this copy
        gc.collect()
        if i == MACHINE_ROW:
            name, n = MACHINE_WORKLOAD
            factory = self.machine_program(n)
            t0 = time.thread_time()
            result = self.run_on_machine(factory, n, spec=self.cm5_spec, name=name)
            return time.thread_time() - t0, result, ()
        if i == MEASURE_ROW:
            name, n = MEASURE_WORKLOAD
            factory = self.measure_program(n)
            t0 = time.thread_time()
            trace = self.measure(factory, n, name=name)
            return time.thread_time() - t0, trace, ()
        if i == PREDICT_ROW:
            _, _, preset = PREDICT_WORKLOAD
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                t0 = time.thread_time()
                rc = self.cli_main(["predict", str(self.trace_path), "--preset", preset])
                elapsed = time.thread_time() - t0
            return elapsed, f"exit {rc}\n{out.getvalue()}", ()
        if i == READ_ROW:
            t0 = time.thread_time()
            trace = self.read_trace(self.trace_path)
            result = self.simulate(self.translate(trace), self.read_params)
            return time.thread_time() - t0, result, trace.events
        tp, params, assignment = self.cases[i]
        t0 = time.thread_time()
        result = self.simulate(tp, params, assignment=assignment)
        return time.thread_time() - t0, result, ()

    def unreachable(self, i: int) -> int:
        """Objects one call of row ``i`` leaves to the cyclic collector:
        what ``gc.collect()`` finds after the call, its result dropped,
        with automatic collection off since the collection that
        :meth:`time` makes first."""
        gc.disable()
        try:
            self.time(i)
            return gc.collect()
        finally:
            gc.enable()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="baseline: git revision or src directory")
    ap.add_argument("b", help="candidate: git revision or src directory")
    ap.add_argument("--rounds", type=int, default=40)
    args = ap.parse_args(argv)
    rows = WORKLOADS + (
        READ_WORKLOAD, MACHINE_WORKLOAD, MEASURE_WORKLOAD, PREDICT_WORKLOAD
    )
    with tempfile.TemporaryDirectory() as scratch:
        trace_path = Path(scratch) / "grid16.jsonl"
        a = Version(source_dir(args.a, Path(scratch)), trace_path)
        b = Version(source_dir(args.b, Path(scratch)), trace_path)
        ratios = [[] for _ in rows]
        times = [([], []) for _ in rows]
        for i, workload in enumerate(rows):  # warm-up, and same results
            if row_digest(i, *a.time(i)[1:]) != row_digest(i, *b.time(i)[1:]):
                sys.exit(f"{label(workload, i)}: the two versions replay differently")
        leftover = [(a.unreachable(i), b.unreachable(i)) for i in range(len(rows))]
        for r in range(args.rounds):
            for i in range(len(rows)):
                first, second = (a, b) if r % 2 == 0 else (b, a)
                t_first, t_second = first.time(i)[0], second.time(i)[0]
                ta, tb = (t_first, t_second) if first is a else (t_second, t_first)
                ratios[i].append(tb / ta)
                times[i][0].append(ta)
                times[i][1].append(tb)
    for i, workload in enumerate(rows):
        q1, _, q3 = statistics.quantiles(ratios[i], n=4)
        wins = sum(tb < ta for ta, tb in zip(*times[i]))
        print(
            f"{label(workload, i)}: B/A median {statistics.median(ratios[i]):.3f} "
            f"[{q1:.3f}, {q3:.3f}]  B faster in {wins}/{args.rounds}"
            f"  A {statistics.median(times[i][0]) * 1e3:.1f} ms"
            f"  B {statistics.median(times[i][1]) * 1e3:.1f} ms  ({args.rounds} rounds)"
            f"  unreachable per call A {leftover[i][0]} B {leftover[i][1]}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
