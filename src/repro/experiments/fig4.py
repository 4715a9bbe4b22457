"""Figure 4 — speedup curves for all benchmarks.

One parameter combination (the distributed-memory preset: 20 MB/s links,
high start-up and synchronisation costs), every suite benchmark, P in
{1, 2, 4, 8, 16, 32}.  The curves should show the suite's range of
behaviours: Embar close to linear, Cyclic and Poisson reasonable, the
others limited by communication or barrier costs — with Grid and Mgrid
levelling off after four processors because the (BLOCK, BLOCK)
distribution idles processors at non-square counts.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.suite import BENCHMARKS
from repro.core.pipeline import measure
from repro.experiments.base import ExperimentResult, predicted_series
from repro.experiments.paramsets import PROCESSOR_COUNTS, figure4_params, suite_configs
from repro.metrics import speedups


def run(
    *,
    quick: bool = True,
    benchmarks: Sequence[str] | None = None,
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate the Figure 4 speedup curves."""
    params = figure4_params()
    configs = suite_configs(quick=quick)
    names = list(benchmarks) if benchmarks else list(configs)
    result = ExperimentResult(
        name="fig4",
        title="Speedup curves for all Benchmarks (distributed-memory preset)",
        ylabel="speedup",
    )
    cells = []
    for name in names:
        info = BENCHMARKS[name]
        maker = info.make_program(configs[name])
        for p in info.counts(sorted(processor_counts)):
            cells.append((name, p, measure(maker(p), p, name=name), params))
    times = predicted_series(cells, jobs=jobs)
    for name in names:
        result.series[name] = speedups(times.get(name, {}))

    # Record the figure's qualitative claims for EXPERIMENTS.md.
    if "embar" in result.series:
        s = result.series["embar"]
        top = max(s)
        result.notes.append(
            f"embar speedup at P={top}: {s[top]:.1f} (expected near-linear)"
        )
    for name in ("grid", "mgrid"):
        if name in result.series:
            s = result.series[name]
            if 4 in s and 8 in s:
                result.notes.append(
                    f"{name} speedup 4->8 processors: {s[4]:.2f} -> {s[8]:.2f} "
                    "(the (BLOCK,BLOCK) idle-processor artifact)"
                )
    return result
