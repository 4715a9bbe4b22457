"""SimPoint-style sampled simulation.

Whole-trace simulation pays for every event; most parallel programs
spend that budget re-simulating near-identical iterations.  This
subsystem splits a trace into barrier-delimited (or fixed-event-count)
intervals, clusters the intervals by an event-signature vector with a
deterministic seeded k-means, simulates only each cluster's *medoid*
interval, and reconstitutes whole-run metrics as the cluster-weighted
combination — with per-metric error bars derived from how tightly each
cluster packs around its representative.

The result is a :class:`repro.sim.result.SimulationResult` marked
``estimated=True`` whose ``sampling`` attribute carries the full plan,
so estimates are never mistaken for exact simulations anywhere
downstream (CLI, sweep cache, serve API).

Submodules:

* :mod:`repro.sampling.config`    — :class:`SamplingConfig` knobs
* :mod:`repro.sampling.intervals` — interval splitting + signatures
* :mod:`repro.sampling.cluster`   — seeded k-means, BIC-style k choice,
  medoids, :class:`SamplingPlan`
* :mod:`repro.sampling.estimate`  — the per-config plan a prepared
  trace keeps (:class:`SamplingPrep`), representative simulation and
  weighted reconstitution
"""

from repro.sampling.config import SamplingConfig
from repro.sampling.cluster import PhaseCluster, SamplingPlan, build_plan
from repro.sampling.estimate import (
    SampledOutcome,
    SamplingPrep,
    estimate_sampled,
    plan_report,
    prepare_sampling,
    representative_trace,
    sample_report,
    sampling_section,
)
from repro.sampling.intervals import (
    Interval,
    IntervalSplit,
    split_trace,
)

__all__ = [
    "SamplingConfig",
    "Interval",
    "IntervalSplit",
    "split_trace",
    "PhaseCluster",
    "SamplingPlan",
    "build_plan",
    "SampledOutcome",
    "SamplingPrep",
    "estimate_sampled",
    "plan_report",
    "prepare_sampling",
    "representative_trace",
    "sample_report",
    "sampling_section",
]
