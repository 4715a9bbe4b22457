"""Figure 9 / Table 3 — Matmul validation against the (simulated) CM-5.

Nine two-dimensional distribution combinations (Block/Cyclic/Whole per
dimension), processor scaling, two curves per combination:

* **predicted** — trace on the "Sun4" tracing runtime, extrapolated with
  the Table 3 CM-5 parameter set (MipsRatio 0.41, CommStartupTime 10 us,
  ByteTransferTime 0.118 us/B, BarrierModelTime 5 us);
* **measured** — the same program directly executed on the reference
  CM-5 machine simulator (message-level fat-tree network, hardware
  barriers).

The paper's validation criteria, which this harness checks and records:
the predicted curves match the general shape of the measured ones, the
relative ranking of distributions is reasonably preserved, and the
predicted best choice is the measured best (or within a few percent of
it) at every processor count.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.bench.matmul import ALL_DISTRIBUTIONS, make_program
from repro.core import presets
from repro.core.pipeline import measure
from repro.experiments.base import ExperimentResult, predicted_series
from repro.experiments.paramsets import matmul_config
from repro.machine import CM5_SPEC, run_on_machine

#: Figure 9 plots 4..32 processors (1-processor runs have no comm).
FIG9_COUNTS: Sequence[int] = (4, 8, 16, 32)


def ranking_agreement(
    predicted: Dict[str, float], measured: Dict[str, float]
) -> float:
    """Normalised rank agreement between two orderings (1.0 = identical).

    Uses Spearman's footrule distance, normalised by its maximum.
    """
    names = sorted(predicted)
    if sorted(measured) != names:
        raise ValueError("predicted and measured cover different configurations")
    n = len(names)
    if n < 2:
        return 1.0
    p_rank = {k: r for r, k in enumerate(sorted(names, key=predicted.get))}
    m_rank = {k: r for r, k in enumerate(sorted(names, key=measured.get))}
    footrule = sum(abs(p_rank[k] - m_rank[k]) for k in names)
    max_footrule = (n * n) // 2  # maximum possible footrule distance
    return 1.0 - footrule / max_footrule


def run(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = FIG9_COUNTS,
    distributions: Sequence[Tuple[str, str]] | None = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate Figure 9 (times in us; series '<dist> pred|meas')."""
    params = presets.cm5()
    dists = list(distributions) if distributions else list(ALL_DISTRIBUTIONS)
    result = ExperimentResult(
        name="fig9",
        title="Results from Matmul program (predicted vs CM-5 reference)",
        ylabel="execution time (us)",
    )
    cfgs = [matmul_config(rd, cd, quick=quick) for rd, cd in dists]
    makers = {cfg.dist_label: make_program(cfg) for cfg in cfgs}
    cells = [
        (label, p, measure(maker(p), p, name="matmul"), params)
        for label, maker in makers.items()
        for p in processor_counts
    ]
    pred = predicted_series(cells, jobs=jobs)
    # The reference machine runs programs, not traces: a serial loop.
    meas = {
        label: {
            p: run_on_machine(maker(p), p, spec=CM5_SPEC, name="matmul").execution_time
            for p in processor_counts
        }
        for label, maker in makers.items()
    }
    for label in makers:
        result.series[f"{label} pred"] = pred.get(label, {})
        result.series[f"{label} meas"] = meas[label]
    predicted = {p: {label: pred[label][p] for label in makers} for p in processor_counts}
    measured = {p: {label: meas[label][p] for label in makers} for p in processor_counts}

    # Validation criteria.
    for p in processor_counts:
        agreement = ranking_agreement(predicted[p], measured[p])
        best_pred = min(predicted[p], key=predicted[p].get)
        best_meas = min(measured[p], key=measured[p].get)
        gap = (
            measured[p][best_pred] / measured[p][best_meas] - 1.0
            if measured[p][best_meas] > 0
            else 0.0
        )
        result.notes.append(
            f"P={p}: ranking agreement {agreement:.2f}; predicted best "
            f"{best_pred}, measured best {best_meas} "
            f"(predicted choice within {gap:.1%} of measured optimum)"
        )
    result.predicted = predicted  # type: ignore[attr-defined]
    result.measured = measured  # type: ignore[attr-defined]
    return result
