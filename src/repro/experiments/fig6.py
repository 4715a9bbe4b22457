"""Figure 6 — execution time and speedup with different MipsRatio.

Extrapolating processor speed: MipsRatio 2.0 (target half as fast), 1.0
(same), 0.5 (twice as fast) across the suite.  The paper highlights:

* (i) Embar execution times scale directly with MipsRatio;
* (ii)/(iii) Cyclic and Sort *speedup* curves barely move — their
  comp/comm balance is insensitive at these scales;
* (iv) Mgrid speedup responds strongly (communication-bound at coarse
  levels, so slower processors look relatively better);
* Poisson's communication bottleneck is "not significant until 32".
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.suite import BENCHMARKS
from repro.core.pipeline import measure
from repro.experiments.base import ExperimentResult, predicted_series
from repro.experiments.paramsets import PROCESSOR_COUNTS, figure4_params, suite_configs
from repro.metrics import speedups

MIPS_RATIOS = (2.0, 1.0, 0.5)

#: The four panels of Figure 6: benchmark -> which quantity it plots.
PANELS = {
    "embar": "time",
    "cyclic": "speedup",
    "sort": "speedup",
    "mgrid": "speedup",
    "poisson": "speedup",
}


def run(
    *,
    quick: bool = True,
    benchmarks: Sequence[str] | None = None,
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Figure 6's panels (series named bench@ratio)."""
    params0 = figure4_params()
    configs = suite_configs(quick=quick)
    names = list(benchmarks) if benchmarks else list(PANELS)
    result = ExperimentResult(
        name="fig6",
        title="Execution Time and Speedup Results with Different MipsRatio",
        ylabel="time (us) for embar, speedup otherwise",
    )
    ratio_params = [
        (ratio, params0.with_(processor={"mips_ratio": ratio}))
        for ratio in MIPS_RATIOS
    ]
    cells = []
    for name in names:
        info = BENCHMARKS[name]
        maker = info.make_program(configs[name])
        traces = {
            p: measure(maker(p), p, name=name)
            for p in info.counts(sorted(processor_counts))
        }
        cells += [
            (f"{name}@x{ratio}", p, trace, params)
            for ratio, params in ratio_params
            for p, trace in traces.items()
        ]
    times = predicted_series(cells, jobs=jobs)
    for name in names:
        for ratio in MIPS_RATIOS:
            key = f"{name}@x{ratio}"
            series = times.get(key, {})
            if PANELS.get(name) != "time":
                series = speedups(series)
            result.series[key] = series

    # Qualitative checks the paper calls out.
    def spread(name: str, p: int) -> float:
        vals = [
            result.series[f"{name}@x{r}"][p]
            for r in MIPS_RATIOS
            if p in result.series.get(f"{name}@x{r}", {})
        ]
        if not vals or min(vals) == 0:
            return 0.0
        return max(vals) / min(vals) - 1.0

    top = max(processor_counts)
    if "embar" in names:
        base_p = min(processor_counts)
        t2 = result.series["embar@x2.0"].get(base_p)
        t05 = result.series["embar@x0.5"].get(base_p)
        if t2 and t05:
            result.notes.append(
                f"embar time ratio x2.0 / x0.5 at P={base_p}: {t2 / t05:.2f} "
                "(expected ~4: compute-bound time tracks MipsRatio)"
            )
        t2, t05 = result.series["embar@x2.0"].get(top), result.series[
            "embar@x0.5"
        ].get(top)
        if t2 and t05:
            result.notes.append(
                f"embar time ratio x2.0 / x0.5 at P={top}: {t2 / t05:.2f} "
                "(< 4 as communication grows in relative weight)"
            )
    for name in ("cyclic", "sort", "mgrid"):
        if name in names:
            result.notes.append(
                f"{name} speedup spread across MipsRatio at P={top}: "
                f"{spread(name, top):.1%}"
            )
    return result
