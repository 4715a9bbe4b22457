"""Figure 8 — effects of the remote data request service policy.

Cyclic and Grid under four runtime-system policies, with
CommStartupTime = 100 us (as the paper notes for this experiment):

* **no-interrupt/poll** — requests serviced only while waiting (worst,
  "but only by a maximum of 10% ... in the case of Grid; in Cyclic the
  performance is significantly worse");
* **interrupt** — arrivals preempt computation (best for Grid);
* **poll @ 100 us** and **poll @ 1000 us** — chopped computation with
  periodic queue drains; for Cyclic "a polling policy wins out for
  larger numbers of processors ... larger polling times perform better".

All runs replay the same measured traces — only the processor model's
service policy changes.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.cyclic import make_program as make_cyclic
from repro.bench.grid import make_program as make_grid
from repro.bench.suite import BENCHMARKS
from repro.core.pipeline import measure
from repro.experiments.base import ExperimentResult, predicted_series
from repro.experiments.paramsets import (
    PROCESSOR_COUNTS,
    cyclic_config,
    figure8_params,
    grid_config,
)

POLICIES = (
    ("no-interrupt", {"policy": "no_interrupt"}),
    ("interrupt", {"policy": "interrupt"}),
    ("poll@100us", {"policy": "poll", "poll_interval": 100.0}),
    ("poll@1000us", {"policy": "poll", "poll_interval": 1000.0}),
)


def run(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Figure 8 (execution times in us, series bench/policy)."""
    base = figure8_params()
    result = ExperimentResult(
        name="fig8",
        title="Effects of Remote Data Request Service Policy (Cyclic, Grid)",
        ylabel="execution time (us)",
    )
    programs = {
        "cyclic": make_cyclic(cyclic_config(quick=quick)),
        "grid": make_grid(grid_config(quick=quick)),
    }
    policies = [(label, base.with_(processor=o)) for label, o in POLICIES]
    cells = []
    for bench, maker in programs.items():
        counts = BENCHMARKS[bench].counts(processor_counts)
        # Grid uses actual transfer sizes here (the post-fix traces);
        # whole-element transfers would swamp the policy differences.
        mode = "actual" if bench == "grid" else "compiler"
        traces = {p: measure(maker(p), p, name=bench, size_mode=mode) for p in counts}
        cells += [
            (f"{bench}/{label}", p, traces[p], params)
            for label, params in policies
            for p in counts
        ]
    result.series = predicted_series(cells, jobs=jobs)

    top = max(p for p in processor_counts)
    for bench in programs:
        series = {
            label: result.series[f"{bench}/{label}"]
            for label, _ in POLICIES
            if f"{bench}/{label}" in result.series
        }
        pts = {lab: s.get(max(s)) for lab, s in series.items() if s}
        if pts:
            best = min(pts, key=pts.get)
            worst = max(pts, key=pts.get)
            result.notes.append(
                f"{bench} at largest P: best policy {best} "
                f"({pts[best]:.0f} us), worst {worst} ({pts[worst]:.0f} us, "
                f"+{(pts[worst] / pts[best] - 1):.0%})"
            )
    return result
