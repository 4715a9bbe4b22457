"""Sweep result aggregation: tables, best-config selection, Pareto fronts.

Everything here consumes the :class:`~repro.sweep.executor.SweepRun`
produced by the executor and renders comparison artifacts in the same
spirit as :class:`repro.experiments.base.ExperimentResult` — a table of
every point, the winner under one objective, and the 2-objective Pareto
frontier for the classic design-space trade-off (predicted time vs.
total message bytes by default: how much faster is a configuration, and
how much interconnect traffic does it buy that speed with).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.sweep.executor import PointRecord, SweepRun
from repro.util.tables import format_table

#: Default 2-objective trade-off (both minimised).
DEFAULT_OBJECTIVES: Tuple[str, str] = ("predicted_time_us", "message_bytes")


def ok_records(run: SweepRun) -> List[PointRecord]:
    """Successful points, in spec order."""
    return [r for r in run.records if r.ok]


def best_record(
    run: SweepRun, objective: str = "predicted_time_us"
) -> PointRecord:
    """The point minimising ``objective`` (ties go to the lowest index)."""
    candidates = ok_records(run)
    if not candidates:
        raise ValueError(f"sweep {run.spec.name!r} produced no successful points")
    return min(candidates, key=lambda r: (r.result[objective], r.point.index))


def pareto_front(
    run: SweepRun, objectives: Sequence[str] = DEFAULT_OBJECTIVES
) -> List[PointRecord]:
    """Non-dominated points under ``objectives`` (all minimised).

    A point is dominated when another point is no worse on every
    objective and strictly better on at least one.  The front is
    returned sorted by the first objective (ties by point index), so
    its order — like everything else in a sweep — is deterministic.
    """
    if len(objectives) < 2:
        raise ValueError("pareto_front needs at least 2 objectives")
    candidates = ok_records(run)

    def values(rec: PointRecord) -> Tuple[float, ...]:
        return tuple(float(rec.result[obj]) for obj in objectives)

    front = []
    for rec in candidates:
        v = values(rec)
        dominated = any(
            other is not rec
            and all(o <= s for o, s in zip(values(other), v))
            and any(o < s for o, s in zip(values(other), v))
            for other in candidates
        )
        if not dominated:
            front.append(rec)
    front.sort(key=lambda r: (values(r)[0], r.point.index))
    return front


def results_table(run: SweepRun) -> str:
    """One row per point: the sweep's comparison table."""
    ok = ok_records(run)
    base = min((r.result["predicted_time_us"] for r in ok), default=0.0)
    rows = []
    for rec in run.records:
        if rec.ok:
            r = rec.result
            rows.append(
                [
                    rec.point.index,
                    rec.point.label(),
                    r["predicted_time_us"],
                    (r["predicted_time_us"] / base) if base > 0 else float("nan"),
                    r["utilization"],
                    r["message_count"],
                    r["message_bytes"],
                ]
            )
        else:
            rows.append(
                [rec.point.index, rec.point.label(), f"FAILED: {rec.error_type}"]
                + [""] * 4
            )
    return format_table(
        ["#", "point", "predicted us", "vs best", "util", "msgs", "msg bytes"],
        rows,
        title=f"sweep {run.spec.name!r} over preset {run.spec.preset!r} "
        f"({len(run.records)} points)",
    )


def format_run(run: SweepRun) -> str:
    """The full stdout report for ``extrap sweep run``.

    Deterministic for a given spec + results: no wall times, job
    counts, or cache state appear here (those go to the counters line
    and the log).
    """
    parts = [results_table(run)]
    ok = ok_records(run)
    if ok:
        best = best_record(run)
        parts.append(
            f"best config: #{best.point.index} {best.point.label()} "
            f"({best.result['predicted_time_us']:.1f} us)"
        )
        front = pareto_front(run)
        lines = ["pareto front (predicted time vs message bytes):"]
        for rec in front:
            lines.append(
                f"  #{rec.point.index} {rec.point.label()}: "
                f"{rec.result['predicted_time_us']:.1f} us, "
                f"{rec.result['message_bytes']} bytes"
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)
