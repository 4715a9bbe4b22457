"""Figure 7 — effect of MipsRatio and CommStartupTime on Mgrid.

Execution times for MipsRatio in {1.0, 0.25} x CommStartupTime in
{5, 100, 200} us.  The paper's observation: the processor count
delivering minimum execution time moves from 16 (MipsRatio 1.0) down to
4 (MipsRatio 0.25) — with faster processors, communication overhead
bites earlier.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.mgrid import make_program
from repro.core.pipeline import measure
from repro.experiments.base import ExperimentResult, predicted_series
from repro.experiments.paramsets import PROCESSOR_COUNTS, figure4_params, mgrid_config

MIPS_RATIOS = (1.0, 0.25)
STARTUPS = (5.0, 100.0, 200.0)


def run(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Figure 7 (Mgrid execution times in us)."""
    cfg = mgrid_config(quick=quick)
    maker = make_program(cfg)
    base = figure4_params()
    result = ExperimentResult(
        name="fig7",
        title="Effect of MipsRatio and CommStartupTime on Mgrid",
        ylabel="execution time (us)",
    )
    counts = sorted(processor_counts)
    traces = {p: measure(maker(p), p, name="mgrid") for p in counts}
    variants = {
        (ratio, startup): base.with_(
            processor={"mips_ratio": ratio},
            network={"comm_startup_time": startup},
        )
        for ratio in MIPS_RATIOS
        for startup in STARTUPS
    }
    cells = [
        (f"mips={ratio} startup={startup:g}us", p, traces[p], params)
        for (ratio, startup), params in variants.items()
        for p in counts
    ]
    result.series = predicted_series(cells, jobs=jobs)
    best = {
        variant: min(times, key=times.get)
        for variant, times in zip(variants, result.series.values())
    }

    for (ratio, startup), p in sorted(best.items()):
        result.notes.append(
            f"minimum execution time at MipsRatio={ratio}, "
            f"CommStartupTime={startup:g}us: P={p}"
        )
    slow = {s: best[(1.0, s)] for s in STARTUPS}
    fast = {s: best[(0.25, s)] for s in STARTUPS}
    result.notes.append(
        "expected: the faster processor (MipsRatio 0.25) reaches its "
        f"minimum at fewer processors — got {slow} vs {fast}"
    )
    return result
