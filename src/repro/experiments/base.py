"""Common experiment result container, and the call that runs a grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.parameters import SimulationParameters
from repro.sweep.executor import extrapolate_many
from repro.trace.trace import Trace
from repro.util.asciiplot import ascii_series_plot
from repro.util.tables import format_table


def predicted_series(
    cells: Iterable[Tuple[str, int, Trace, SimulationParameters]], *, jobs: int = 1
) -> Dict[str, Dict[int, float]]:
    """Predicted times of ``(series, x, trace, params)`` grid cells.

    Every cell runs through one :func:`extrapolate_many` call (``jobs``
    worker processes).  The result is ``{series: {x: time_us}}``, with
    series and x values in the order of ``cells``.
    """
    cells = list(cells)
    records = extrapolate_many(
        [(trace, params) for _, _, trace, params in cells], jobs=jobs
    )
    series: Dict[str, Dict[int, float]] = {}
    for (label, x, _, _), record in zip(cells, records):
        series.setdefault(label, {})[x] = record["predicted_time_us"]
    return series


@dataclass
class ExperimentResult:
    """Numeric series plus a formatted report for one experiment.

    Attributes
    ----------
    name:
        Experiment id, e.g. ``"fig4"``.
    title:
        Human title, e.g. the figure caption.
    series:
        ``{series_name: {x: y}}`` — the curves the figure plots
        (x is usually the processor count; y a time in us or a speedup).
    ylabel:
        What the y values are.
    notes:
        Free-form observations recorded by the harness (the qualitative
        claims the paper makes about this figure).
    """

    name: str
    title: str
    series: Dict[str, Dict[int, float]] = field(default_factory=dict)
    ylabel: str = "value"
    notes: List[str] = field(default_factory=list)

    def xs(self) -> List[int]:
        out = sorted({x for s in self.series.values() for x in s})
        return out

    def table(self, float_fmt: str = ".2f") -> str:
        """One row per x, one column per series."""
        xs = self.xs()
        headers = ["P"] + list(self.series)
        rows = []
        for x in xs:
            rows.append(
                [x] + [self.series[s].get(x, float("nan")) for s in self.series]
            )
        return format_table(headers, rows, float_fmt=float_fmt)

    def plot(self, *, logx: bool = True) -> str:
        data = {
            name: sorted((float(x), float(y)) for x, y in s.items())
            for name, s in self.series.items()
            if s
        }
        return ascii_series_plot(
            data, title=self.title, xlabel="processors", ylabel=self.ylabel, logx=logx
        )

    def to_csv(self) -> str:
        """The series as CSV (one row per x, one column per series) for
        downstream plotting tools."""
        headers = ["x"] + list(self.series)
        lines = [",".join(headers)]
        for x in self.xs():
            cells = [str(x)] + [
                repr(self.series[s][x]) if x in self.series[s] else ""
                for s in self.series
            ]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def format(self) -> str:
        parts = [f"== {self.name}: {self.title} =="]
        parts.append(self.table())
        try:
            parts.append(self.plot())
        except ValueError:
            pass
        if self.notes:
            parts.append("notes:")
            parts.extend(f"  - {n}" for n in self.notes)
        return "\n\n".join(parts)
