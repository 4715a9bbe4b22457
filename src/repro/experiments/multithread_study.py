"""The §6 multithreading extension as an experiment.

Extrapolates one n-thread measurement onto every processor count
m <= n under both thread-assignment schemes, quantifying the locality
benefit of packing communicating threads together.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.grid import GridConfig, make_program
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.experiments.base import ExperimentResult
from repro.experiments.paramsets import figure4_params
from repro.sim.simulator import assign_threads, simulate


def run(
    *,
    quick: bool = True,
    n_threads: int = 16,
    processor_counts: Sequence[int] = (1, 2, 4, 8, 16),
) -> ExperimentResult:
    """Grid with ``n_threads`` threads on m multithreaded processors."""
    cfg = (
        GridConfig(patch_rows=4, patch_cols=4, m=8, iterations=4)
        if quick
        else GridConfig()
    )
    trace = measure(
        make_program(cfg)(n_threads), n_threads, name="grid", size_mode="actual"
    )
    tp = translate(trace)
    params = figure4_params()
    result = ExperimentResult(
        name="ablation-multithread",
        title=f"{n_threads}-thread Grid on m multithreaded processors",
        ylabel="execution time (us)",
    )
    locality = {}
    for scheme in ("block", "cyclic"):
        series = {}
        for m in processor_counts:
            if m > n_threads:
                continue
            res = simulate(
                tp, params, assignment=assign_threads(n_threads, m, scheme)
            )
            series[m] = res.execution_time
            if scheme == "block":
                locality[m] = res.local_accesses()
        result.series[scheme] = series

    result.notes.append(
        f"block-assignment local (intra-processor) accesses by m: {locality}"
    )
    mid = [m for m in processor_counts if 1 < m < n_threads]
    if mid:
        m = mid[len(mid) // 2]
        blk, cyc = result.series["block"][m], result.series["cyclic"][m]
        result.notes.append(
            f"at m={m}: block {blk:.0f} us vs cyclic {cyc:.0f} us "
            f"({'block wins' if blk <= cyc else 'cyclic wins'} — packing "
            "neighbouring patches' threads localises their exchanges)"
        )
    return result
