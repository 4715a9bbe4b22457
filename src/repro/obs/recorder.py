"""The timeline recorder: the write side of :mod:`repro.obs`.

:class:`TimelineRecorder` is the narrow hook interface the simulation
models call at the points where they already account busy/wait time:

* :meth:`~TimelineRecorder.span` — a closed interval of activity on one
  simulated processor, attributed to a category (the busy categories of
  :data:`repro.sim.result.CATEGORIES`, plus the wait-episode categories
  ``comm_wait`` / ``barrier_wait``);
* :meth:`~TimelineRecorder.instant` — a point event (a remote-access
  issue, a mark, a barrier release);
* :meth:`~TimelineRecorder.counter` — one sample of a named time series
  (receive-queue depth, messages in flight, cumulative busy time).
  Samples are taken **on state change**, not on a clock: the recorder
  drops a sample whose value equals the series' previous value, so an
  idle simulation records nothing.

The recorder itself never reads the simulation clock — every hook takes
explicit timestamps — so it has no dependency on the DES engine and can
be unit-tested standalone.  Components reach it through the engine's
``Environment.obs`` slot (``None`` when observation is off; every hook
site is behind a single ``if obs is not None`` guard so the fast path
pays one pointer test, nothing more).

:meth:`~TimelineRecorder.finalize` freezes the recording into an
immutable :class:`Timeline`, the value carried on
``SimulationResult.timeline`` and consumed by :mod:`repro.obs.export`
and :mod:`repro.obs.gantt`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

#: Wait-episode span categories.  Unlike the busy categories, these
#: cover the *wall-clock* waiting interval; busy spans recorded while
#: servicing requests during the wait nest inside them, so summing a
#: wait category gives elapsed episode time, not the elapsed-minus-busy
#: figure ``ProcessorStats`` reports.
WAIT_CATEGORIES = ("comm_wait", "barrier_wait")


@dataclass(frozen=True)
class Span:
    """One closed activity interval on one simulated processor."""

    proc: int
    category: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Instant:
    """One point event on one simulated processor."""

    proc: int
    name: str
    t: float
    #: sorted (key, value) pairs — kept as a tuple so Instants stay
    #: hashable and deterministic to serialise
    args: Tuple[Tuple[str, object], ...] = ()

    def args_dict(self) -> Dict[str, object]:
        return dict(self.args)


class CounterSeries:
    """A named time series sampled on state change.

    ``sample(t, value)`` appends only when ``value`` differs from the
    last recorded value, so the series is a compact step function: the
    value holds from one sample until the next.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def sample(self, t: float, value: float) -> None:
        if self.samples and self.samples[-1][1] == value:
            return
        self.samples.append((t, value))

    def __len__(self) -> int:
        return len(self.samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CounterSeries({self.name!r}, {len(self.samples)} samples)"


class TimelineRecorder:
    """Collects spans, instants and counter samples during a simulation."""

    def __init__(self):
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._counters: Dict[str, CounterSeries] = {}

    # -- hook interface (called from the simulation models) -----------------

    def span(self, proc: int, category: str, t0: float, t1: float) -> None:
        """Record activity on ``proc`` over ``[t0, t1]``; zero/negative
        length spans are dropped (float residue, not real activity)."""
        if t1 > t0:
            self.spans.append(Span(proc, category, t0, t1))

    def instant(self, proc: int, name: str, t: float, **args) -> None:
        """Record a point event (args become the exported ``args`` dict)."""
        self.instants.append(
            Instant(proc, name, t, tuple(sorted(args.items())))
        )

    def counter(self, name: str, t: float, value: float) -> None:
        """Sample counter ``name``; dropped when the value is unchanged."""
        series = self._counters.get(name)
        if series is None:
            series = self._counters[name] = CounterSeries(name)
        series.sample(t, value)

    # -- freeze ----------------------------------------------------------------

    def finalize(
        self,
        *,
        n_procs: int,
        end_time: float,
        program: str = "",
        params_name: str = "",
    ) -> "Timeline":
        """Freeze the recording into an immutable, sorted :class:`Timeline`."""
        timeline = Timeline(
            n_procs=n_procs,
            end_time=end_time,
            program=program,
            params_name=params_name,
            spans=sorted(
                self.spans, key=lambda s: (s.proc, s.t0, s.t1, s.category)
            ),
            instants=sorted(
                self.instants, key=lambda i: (i.t, i.proc, i.name)
            ),
            counters={
                name: self._counters[name]
                for name in sorted(self._counters)
            },
        )
        # Precompute the per-processor span index while the timeline is
        # hot: per-proc queries (diagnosis, Gantt lanes) then never
        # rescan the flat span list.
        timeline._index()
        return timeline


@dataclass
class Timeline:
    """An immutable recorded timeline of one simulated execution.

    This is the observability twin of the aggregate
    :class:`~repro.sim.result.SimulationResult` statistics: the same
    accounting, kept as *events in time* instead of totals.
    """

    n_procs: int
    end_time: float
    program: str = ""
    params_name: str = ""
    spans: List[Span] = field(default_factory=list)
    instants: List[Instant] = field(default_factory=list)
    counters: Mapping[str, CounterSeries] = field(default_factory=dict)

    # -- per-processor span index --------------------------------------------

    def _index(self) -> Dict[int, List[Span]]:
        """Per-processor span lists + category totals, built once.

        :meth:`TimelineRecorder.finalize` precomputes this; lazily
        (re)built otherwise, keyed on the span count so hand-assembled
        timelines that append spans after a query stay correct.
        """
        if getattr(self, "_index_spans", -1) != len(self.spans):
            by_proc: Dict[int, List[Span]] = {}
            totals: Dict[int, Dict[str, float]] = {}
            for s in self.spans:
                by_proc.setdefault(s.proc, []).append(s)
                t = totals.setdefault(s.proc, {})
                t[s.category] = t.get(s.category, 0.0) + s.duration
            self._by_proc = by_proc
            self._totals_by_proc = totals
            self._index_spans = len(self.spans)
        return self._by_proc

    # -- queries -------------------------------------------------------------

    def spans_for(self, proc: int) -> List[Span]:
        return list(self._index().get(proc, ()))

    def category_totals(self, proc: Optional[int] = None) -> Dict[str, float]:
        """Summed span duration per category (optionally one processor).

        For busy categories this agrees with the matching
        ``ProcessorStats.categories`` entry to float tolerance; wait
        categories sum to *episode* (wall) time — see
        :data:`WAIT_CATEGORIES`.
        """
        self._index()
        if proc is not None:
            return dict(self._totals_by_proc.get(proc, {}))
        # Merge per-proc subtotals in ascending pid order: deterministic
        # (and agrees with a flat scan to float associativity).
        totals: Dict[str, float] = {}
        for p in sorted(self._totals_by_proc):
            for cat, v in self._totals_by_proc[p].items():
                totals[cat] = totals.get(cat, 0.0) + v
        return totals

    def counter_names(self) -> List[str]:
        return list(self.counters)

    def summary(self) -> str:
        """One-paragraph text summary (the default `extrap timeline` view)."""
        totals = self.category_totals()
        lines = [
            f"timeline: {self.program or 'program'} on {self.n_procs} "
            f"processors ({self.params_name or 'unknown params'}), "
            f"0 .. {self.end_time:.1f} us",
            f"  {len(self.spans)} spans, {len(self.instants)} instants, "
            f"{len(self.counters)} counter series",
        ]
        for cat in sorted(totals):
            lines.append(f"  span total {cat:18s} {totals[cat]:14.1f} us")
        for name, series in self.counters.items():
            lines.append(f"  counter    {name:18s} {len(series):6d} samples")
        return "\n".join(lines)
