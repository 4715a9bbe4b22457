"""Extended validation: predicted vs reference machine beyond Matmul.

The paper validates ExtraP on Matmul only (Figure 9); with the reference
machine in hand we can cheaply extend the same methodology to other
suite benchmarks — predicted CM-5 times from 1-processor traces vs the
direct message-level simulation, across processor counts.  The claim
under test is the paper's: shapes and relative orderings, not absolute
numbers.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.bench.cyclic import CyclicConfig
from repro.bench.cyclic import make_program as make_cyclic
from repro.bench.grid import GridConfig
from repro.bench.grid import make_program as make_grid
from repro.bench.sort import SortConfig
from repro.bench.sort import make_program as make_sort
from repro.bench.suite import BENCHMARKS
from repro.core import presets
from repro.core.pipeline import measure
from repro.experiments.base import ExperimentResult, predicted_series
from repro.machine import CM5_SPEC, run_on_machine


def _programs(quick: bool) -> Dict[str, Tuple[Callable, str]]:
    """name -> (maker, size_mode) for the validation set."""
    return {
        "grid": (
            make_grid(
                GridConfig(patch_rows=4, patch_cols=4, m=8, iterations=3)
                if quick
                else GridConfig()
            ),
            "actual",
        ),
        "cyclic": (
            make_cyclic(CyclicConfig(system_size=1 << 12 if quick else 1 << 14)),
            "compiler",
        ),
        "sort": (
            make_sort(SortConfig(total_keys=1 << 10 if quick else 1 << 14)),
            "compiler",
        ),
    }


def run(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = (4, 8, 16),
    benchmarks: Sequence[str] | None = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Predicted vs reference-machine times for several benchmarks."""
    params = presets.cm5()
    progs = _programs(quick)
    names = list(benchmarks) if benchmarks else list(progs)
    result = ExperimentResult(
        name="validation-suite",
        title="Predicted vs reference-machine times (CM-5 parameters)",
        ylabel="execution time (us)",
    )
    name_counts, cells = {}, []
    for name in names:
        maker, mode = progs[name]
        counts = name_counts[name] = BENCHMARKS[name].counts(processor_counts)
        cells += [
            (name, p, measure(maker(p), p, name=name, size_mode=mode), params)
            for p in counts
        ]
    predicted = predicted_series(cells, jobs=jobs)
    for name in names:
        maker, counts = progs[name][0], name_counts[name]
        pred = predicted.get(name, {})
        # The reference machine runs programs, not traces: a serial loop.
        meas = {
            p: run_on_machine(maker(p), p, spec=CM5_SPEC, name=name).execution_time
            for p in counts
        }
        result.series[f"{name} pred"] = pred
        result.series[f"{name} meas"] = meas
        ratios = [pred[p] / meas[p] for p in counts if meas[p] > 0]
        result.notes.append(
            f"{name}: predicted/measured ratio "
            f"{min(ratios):.2f}..{max(ratios):.2f} across P={list(counts)}"
        )
        # Shape agreement: do both sides order the processor counts the
        # same way (does adding processors help or hurt consistently)?
        pred_order = sorted(counts, key=pred.get)
        meas_order = sorted(counts, key=meas.get)
        result.notes.append(
            f"{name}: processor-count ordering "
            + ("agrees" if pred_order == meas_order else
               f"differs (pred {pred_order} vs meas {meas_order})")
        )
    return result
