#!/usr/bin/env python
"""The §6 extension: n threads extrapolated onto m <= n processors.

The standard pipeline predicts an n-thread, n-processor run.  The same
simulator, given a thread -> processor assignment, reuses the *same*
1-processor traces to ask: what if the 16-thread program ran on 2, 4 or
8 processors instead, each running its threads non-preemptively?  And
does it matter whether communicating threads are packed onto the same
processor (block assignment) or spread out (cyclic)?

Run:  python examples/multithread_extrapolation.py
"""

from repro import measure, presets, translate
from repro.bench.grid import GridConfig, make_program
from repro.sim import assign_threads, simulate
from repro.util.tables import format_table

N_THREADS = 16


def main():
    cfg = GridConfig(patch_rows=4, patch_cols=4, m=8, iterations=4)
    trace = measure(
        make_program(cfg)(N_THREADS), N_THREADS, name="grid", size_mode="actual"
    )
    tp = translate(trace)
    params = presets.distributed_memory()

    rows = []
    for m in (1, 2, 4, 8, 16):
        blk, cyc = (
            simulate(tp, params, assignment=assign_threads(N_THREADS, m, scheme))
            for scheme in ("block", "cyclic")
        )
        rows.append(
            [
                m,
                blk.execution_time / 1000.0,
                cyc.execution_time / 1000.0,
                blk.local_accesses(),
                cyc.local_accesses(),
                blk.network.messages,
            ]
        )

    print(
        format_table(
            [
                "procs",
                "block (ms)",
                "cyclic (ms)",
                "local reqs (blk)",
                "local reqs (cyc)",
                "msgs (blk)",
            ],
            rows,
            title=f"{N_THREADS}-thread Grid on m multithreaded processors",
        )
    )
    print()
    print("block assignment keeps neighbouring patches' threads on one")
    print("processor, turning their boundary exchanges into local accesses;")
    print("all of this came from one 16-thread, 1-processor measurement.")


if __name__ == "__main__":
    main()
