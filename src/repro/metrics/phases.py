"""Per-phase metrics from MARK events.

Programs annotate algorithm phases with paired marks::

    yield from ctx.mark("begin:transpose")
    ...
    yield from ctx.mark("end:transpose")

Marks survive measurement, translation, and simulation (they ride along
with zero timing-model cost), so the *extrapolated* traces carry
predicted per-phase timings — the difference between "the program is
slow" and "the transposes are slow on this machine", which is the
diagnosis granularity performance debugging needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.trace.events import EventKind
from repro.trace.trace import ThreadTrace
from repro.util.tables import format_table

BEGIN_PREFIX = "begin:"
END_PREFIX = "end:"


@dataclass
class PhaseStats:
    """Aggregate timings of one named phase across threads."""

    name: str
    #: per-thread total time spent inside the phase
    per_thread: Dict[int, float] = field(default_factory=dict)
    #: number of (begin, end) episodes observed
    episodes: int = 0

    @property
    def total(self) -> float:
        return sum(self.per_thread.values())

    @property
    def max_thread(self) -> float:
        return max(self.per_thread.values(), default=0.0)

    @property
    def imbalance(self) -> float:
        """max/mean per-thread time (1.0 = perfectly balanced)."""
        if not self.per_thread:
            return 0.0
        mean = self.total / len(self.per_thread)
        return self.max_thread / mean if mean > 0 else 0.0


class PhaseError(ValueError):
    """Malformed phase markers (unmatched or interleaved begin/end)."""


def phase_stats(threads: Sequence[ThreadTrace]) -> Dict[str, PhaseStats]:
    """Extract per-phase timings from (measured or extrapolated) traces.

    Phases may repeat (each begin/end pair adds an episode) and may nest
    *different* names; re-entering a phase already open on the same
    thread is an error.
    """
    out: Dict[str, PhaseStats] = {}
    for tt in threads:
        open_at: Dict[str, float] = {}
        for ev in tt.events:
            if ev.kind != EventKind.MARK:
                continue
            if ev.tag.startswith(BEGIN_PREFIX):
                name = ev.tag[len(BEGIN_PREFIX):]
                if name in open_at:
                    raise PhaseError(
                        f"thread {tt.thread}: phase {name!r} begun twice"
                    )
                open_at[name] = ev.time
            elif ev.tag.startswith(END_PREFIX):
                name = ev.tag[len(END_PREFIX):]
                if name not in open_at:
                    raise PhaseError(
                        f"thread {tt.thread}: phase {name!r} ended "
                        "without a begin"
                    )
                start = open_at.pop(name)
                st = out.setdefault(name, PhaseStats(name))
                st.per_thread[tt.thread] = (
                    st.per_thread.get(tt.thread, 0.0) + ev.time - start
                )
                st.episodes += 1
        if open_at:
            raise PhaseError(
                f"thread {tt.thread}: phases never ended: {sorted(open_at)}"
            )
    return out


def phase_table(threads: Sequence[ThreadTrace], *, float_fmt: str = ".1f") -> str:
    """Formatted per-phase report, sorted by total time descending."""
    stats = phase_stats(threads)
    if not stats:
        return "(no phase markers in the trace)"
    rows: List[List] = []
    for st in sorted(stats.values(), key=lambda s: s.total, reverse=True):
        rows.append(
            [
                st.name,
                st.episodes,
                st.total,
                st.max_thread,
                st.imbalance,
            ]
        )
    return format_table(
        ["phase", "episodes", "total us", "max thread us", "imbalance"],
        rows,
        float_fmt=float_fmt,
        title="per-phase breakdown",
    )
