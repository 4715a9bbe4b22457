"""End-to-end extrapolation pipeline (paper Figure 2).

:func:`measure` runs a program under the 1-processor tracing runtime;
a :class:`PreparedTrace` holds everything about the resulting trace that
no target environment changes (digest, stats, translation, sampling
plans); :func:`extrapolate` simulates a trace in one environment and
returns an :class:`ExtrapolationOutcome` bundling everything a
performance-debugging session needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence

from repro.core.parameters import SimulationParameters
from repro.core.translation import TranslatedProgram, translate
from repro.pcxx.runtime import SUN4_MFLOPS, ThreadBody, TracingRuntime
from repro.sim.result import SimulationResult
from repro.sim.simulator import simulate
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sampling import SamplingConfig
    from repro.sampling.estimate import SamplingPrep

#: A program is a factory: given a tracing runtime, it builds collections
#: and returns the per-thread bodies to run.  The factory shape lets the
#: same program be measured at different thread counts and size modes.
ProgramFactory = Callable[[TracingRuntime], "Sequence[ThreadBody] | ThreadBody"]


@dataclass
class ExtrapolationOutcome:
    """Everything produced by one extrapolation run."""

    #: merged trace measured in the 1-processor environment (PI1)
    trace: Trace
    #: statistics of the measured trace
    trace_stats: TraceStats
    #: translated ideal-parallel per-thread traces
    translated: TranslatedProgram
    #: simulation result: predicted performance information (PI2p)
    result: SimulationResult

    @property
    def predicted_time(self) -> float:
        """Predicted n-processor execution time (microseconds)."""
        return self.result.execution_time

    @property
    def ideal_time(self) -> float:
        """Execution time under zero-cost communication/synchronisation."""
        return self.translated.ideal_execution_time()


class PreparedTrace:
    """One measured trace plus the work on it that no environment changes.

    The paper measures a program once and extrapolates that trace to
    many target environments.  Everything before the simulation depends
    only on the trace (and, for a sampled estimate, the sampling
    config), so it is built lazily here, once, and reused by every
    :func:`extrapolate` or :func:`repro.sampling.estimate_sampled` call
    that is handed this object:

    * ``stats``;
    * ``translated``: the ideal-parallel program, as measured (no
      instrumentation overhead subtracted);
    * ``sampling(config)``: per config, the interval split, the
      clustering plan, the cluster scales and one prepared
      representative sub-trace per cluster.

    Results are identical to the unprepared path: the same functions
    run on the same inputs, only fewer times.  Lazy fields are filled
    without a lock; two threads racing on one build the same value.
    """

    def __init__(self, trace: Trace):
        self.trace = trace
        self._stats: Optional[TraceStats] = None
        self._translated: Optional[TranslatedProgram] = None
        self._sampling: Dict["SamplingConfig", "SamplingPrep"] = {}
        #: called after a sampling plan is added (a memo re-checks its bound)
        self.on_grow: Optional[Callable[[], None]] = None

    @classmethod
    def of(cls, trace: "Trace | PreparedTrace") -> "PreparedTrace":
        """``trace`` itself if already prepared, else a fresh, cold one."""
        if isinstance(trace, PreparedTrace):
            return trace
        return cls(trace)

    @property
    def stats(self) -> TraceStats:
        if self._stats is None:
            self._stats = compute_stats(self.trace)
        return self._stats

    @property
    def translated(self) -> TranslatedProgram:
        if self._translated is None:
            self._translated = translate(self.trace)
        return self._translated

    def sampling(self, config: "SamplingConfig") -> "SamplingPrep":
        """The sampling plan under ``config``, built on first use.

        Keyed by the config itself: it is frozen, and two configs are
        equal exactly when their canonical dicts are.  Raises
        :class:`ValueError` for an empty trace.
        """
        prep = self._sampling.get(config)
        if prep is None:
            from repro.sampling.estimate import prepare_sampling

            prep = self._sampling.setdefault(
                config, prepare_sampling(self, config)
            )
            if self.on_grow is not None:
                self.on_grow()
        return prep

    @property
    def events_held(self) -> int:
        """Trace events this object keeps alive: the trace's plus every
        built plan's representative sub-traces."""
        return len(self.trace.events) + sum(
            prep.events_simulated for prep in list(self._sampling.values())
        )


def measure(
    program: ProgramFactory,
    n_threads: int,
    *,
    name: str = "",
    trace_mflops: float = SUN4_MFLOPS,
    size_mode: str = "compiler",
    event_overhead: float = 0.0,
    flush_every: int = 0,
    flush_overhead: float = 0.0,
    compute_noise: float = 0.0,
    noise_seed: Optional[int] = None,
    problem: Optional[Dict[str, Any]] = None,
) -> Trace:
    """Run ``program`` with ``n_threads`` on one virtual processor.

    Returns the merged high-level event trace (PI1).
    """
    rt = TracingRuntime(
        n_threads,
        name,
        trace_mflops=trace_mflops,
        size_mode=size_mode,
        event_overhead=event_overhead,
        flush_every=flush_every,
        flush_overhead=flush_overhead,
        compute_noise=compute_noise,
        noise_seed=noise_seed,
        problem=problem,
    )
    bodies = program(rt)
    return rt.run(bodies)


def extrapolate(
    trace: "Trace | PreparedTrace",
    params: SimulationParameters,
    *,
    profile: bool = False,
    observe: bool = False,
    wall_clock_budget: Optional[float] = None,
) -> ExtrapolationOutcome:
    """Translate a measured trace and simulate it in environment ``params``.

    The trace is translated as measured.  To subtract instrumentation
    overhead first, translate it with
    :func:`~repro.core.translation.translate` (``event_overhead``,
    ``flush_every``, ``flush_overhead``) and simulate that program.

    Parameters
    ----------
    trace:
        Merged 1-processor trace from :func:`measure`, or a
        :class:`PreparedTrace` whose translation and stats are reused.
    params:
        Target-environment description (see :mod:`repro.core.presets`).
        When ``params.faults`` is a non-null fault plan, the simulation
        runs on the modelled *unreliable* machine (see
        :mod:`repro.faults`).
    profile:
        Collect engine counters and phase timers on the simulation; the
        outcome's ``result.profile`` carries them (slower run, identical
        simulation results).
    observe:
        Record an event-level timeline of the simulated execution; the
        outcome's ``result.timeline`` carries it (see :mod:`repro.obs`;
        identical simulation results).
    wall_clock_budget:
        Real-seconds watchdog budget for the simulation (None =
        unlimited); exceeded budgets raise
        :class:`~repro.des.engine.SimulationStalled`.
    """
    prepared = PreparedTrace.of(trace)
    result = simulate(
        prepared.translated,
        params,
        profile=profile,
        observe=observe,
        wall_clock_budget=wall_clock_budget,
    )
    return ExtrapolationOutcome(
        trace=prepared.trace,
        trace_stats=prepared.stats,
        translated=prepared.translated,
        result=result,
    )


def measure_and_extrapolate(
    program: ProgramFactory,
    n_threads: int,
    params: SimulationParameters,
    **measure_kwargs,
) -> ExtrapolationOutcome:
    """measure + extrapolate in one call."""
    trace = measure(program, n_threads, **measure_kwargs)
    return extrapolate(trace, params)
