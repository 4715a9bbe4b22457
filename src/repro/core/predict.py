"""The one predict entry behind ``extrap predict``, serve and sweep points.

:func:`predict` is the only place that chooses between a full
simulation and a sampled estimate, and a :class:`PredictMode` the only
place that refuses to sample a run needing a full simulation.  Sampling
and report rendering are imported at call time, so the functions bound
in :mod:`repro.sampling` and :mod:`repro.metrics.report` when the call
happens are the ones that run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.core.pipeline import extrapolate

if TYPE_CHECKING:  # pragma: no cover
    from repro.sampling import SamplingConfig


@dataclass(frozen=True)
class PredictMode:
    """How one prediction runs: full or sampled, and what it records."""

    #: answer with a sampled estimate under this config
    sample: Optional["SamplingConfig"] = None
    #: record an event-level timeline of the simulated run
    timeline: bool = False
    #: collect engine counters and phase timers
    profile: bool = False
    #: the caller diagnoses the recorded timeline (implies ``timeline``)
    diagnose: bool = False

    def __post_init__(self) -> None:
        for name in ("timeline", "profile", "diagnose"):
            if self.sample is not None and getattr(self, name):
                raise ValueError(
                    f"'{name}' needs a full simulation; it cannot be "
                    "combined with 'sample' (drop one of the two)"
                )

    def cache_extra(
        self, base: Optional[Mapping[str, Any]] = None
    ) -> Optional[Dict[str, Any]]:
        """This mode's cache-key namespace, on top of ``base``.

        Estimates (per sampling config), diagnosed payloads and plain
        results never answer each other's requests.
        """
        extra = dict(base or {})
        if self.sample is not None:
            extra["sampling"] = self.sample.canonical_dict()
        elif self.diagnose:
            extra["diagnose"] = 1
        return extra or None


def predict(
    trace, params, mode: PredictMode = PredictMode(), *, wall_clock_budget=None
):
    """The outcome of predicting ``trace`` under ``params`` in ``mode``.

    ``trace`` is a plain :class:`~repro.trace.trace.Trace`, prepared
    afresh for this one call, or a
    :class:`~repro.core.pipeline.PreparedTrace` whose translation and
    sampling plans are reused; the outcome is the same either way.
    ``wall_clock_budget`` (real seconds) caps the whole prediction and
    raises :class:`~repro.des.engine.SimulationStalled` when spent; a
    trace the model cannot run raises :class:`ValueError`.
    """
    if mode.sample is not None:
        from repro.sampling import estimate_sampled

        return estimate_sampled(
            trace, params, mode.sample, wall_clock_budget=wall_clock_budget
        )
    return extrapolate(
        trace,
        params,
        profile=mode.profile,
        observe=mode.timeline or mode.diagnose,
        wall_clock_budget=wall_clock_budget,
    )


def predict_report(params, outcome) -> str:
    """The ``extrap predict`` text: summary, plus error bars for an estimate."""
    from repro.metrics.report import predict_summary

    report = predict_summary(params, outcome)
    if outcome.result.estimated:
        from repro.sampling import sampling_section

        report += "\n" + sampling_section(outcome.result)
    return report
