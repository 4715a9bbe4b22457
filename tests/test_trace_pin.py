"""Pin of the traces the 1-processor tracing runtime measures.

Each measured trace is pinned by one sha256 over its
:meth:`~repro.trace.trace.Trace.digest` (metadata plus every event: its
time, thread, kind and fields) and its ``race_findings``.  The runs:

* every suite benchmark at its default size on 1, 2, 3, 4, 8 and 16
  threads (powers of two only where the benchmark needs them), in both
  the ``compiler`` and the ``actual`` size mode;
* one run per benchmark with every measurement intrusion switched on:
  seeded compute noise, a per-event overhead and periodic buffer
  flushes;
* one small program with a same-epoch read/write race.

Thread start order, the run-to-barrier switch order, the virtual clock
and the race watchdog all show in these digests, so a change to how
the runtime schedules its threads must leave every one unchanged.  To
regenerate after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_trace_pin.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.bench.suite import BENCHMARKS
from repro.core.pipeline import measure
from repro.pcxx import Collection, make_distribution
from repro.trace.trace import Trace

GOLDEN_PATH = Path(__file__).parent / "data" / "trace_pin_golden.json"

THREAD_COUNTS = (1, 2, 3, 4, 8, 16)
SIZE_MODES = ("compiler", "actual")

#: Every intrusion the runtime models, on at once.
INTRUSIONS = {
    "compute_noise": 0.05,
    "noise_seed": 11,
    "event_overhead": 0.5,
    "flush_every": 16,
    "flush_overhead": 40.0,
}
INTRUSION_THREADS = 4


def trace_pin(trace: Trace) -> str:
    """sha256 over a trace's digest and its race findings."""
    doc = {
        "digest": trace.digest(),
        "races": [
            (f.epoch, f.collection, repr(f.index), f.writer, f.reader)
            for f in trace.race_findings
        ],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def racy_program(rt):
    """Thread 0 writes its element while every other thread reads it in
    the same barrier epoch; then all write their own and read thread 0's
    after a barrier (no race there)."""
    coll = Collection(
        "x", make_distribution(rt.n_threads, rt.n_threads, "block"),
        element_nbytes=8,
    )

    def body(ctx):
        yield from ctx.compute(10.0 * (ctx.tid + 1))
        if ctx.tid == 0:
            yield from ctx.put(coll, 0, 1.0)
        else:
            yield from ctx.get(coll, 0)
        yield from ctx.barrier()
        yield from ctx.put(coll, ctx.tid, float(ctx.tid))
        yield from ctx.barrier()
        yield from ctx.get(coll, 0)

    return body


def compute_pins() -> Dict[str, str]:
    """Pin of every measured configuration."""
    pins = {}
    for name, info in BENCHMARKS.items():
        maker = info.make_program()
        for n in THREAD_COUNTS:
            if info.power_of_two_only and n & (n - 1):
                continue
            for mode in SIZE_MODES:
                trace = measure(maker(n), n, name=name, size_mode=mode)
                pins[f"{name}@{n}/{mode}"] = trace_pin(trace)
        n = INTRUSION_THREADS
        trace = measure(maker(n), n, name=name, **INTRUSIONS)
        pins[f"{name}@{n}/intrusions"] = trace_pin(trace)
    trace = measure(racy_program, 3, name="racy")
    assert trace.race_findings
    pins["racy@3"] = trace_pin(trace)
    return pins


def test_measured_traces_match_pin():
    golden = json.loads(GOLDEN_PATH.read_text())
    pins = compute_pins()
    assert sorted(pins) == sorted(golden)
    changed = sorted(k for k in golden if pins[k] != golden[k])
    assert not changed, f"{len(changed)} measured traces changed: {changed[:10]}"


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_trace_pin.py --write")
    GOLDEN_PATH.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
