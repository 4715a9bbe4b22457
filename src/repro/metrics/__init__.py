"""Performance metrics (PM): quantities derived from performance information.

The paper defines a performance metric as "a measure of the quality of a
parallel program", always relative to an execution environment.  This
package derives the metrics the evaluation uses — execution time,
speedup, efficiency, computation/communication ratio, utilisation,
barrier statistics — from :class:`~repro.sim.result.SimulationResult`
objects, and provides the processor-scaling machinery
(:class:`~repro.metrics.scaling.ScalingStudy`) that the per-figure
experiments build on.
"""

from repro.metrics.metrics import (
    PerformanceMetrics,
    derive_metrics,
    metrics_from_result,
    result_record,
    speedups,
)
from repro.metrics.phases import PhaseStats, phase_stats, phase_table
from repro.metrics.report import full_report, profile_section
from repro.metrics.scaling import ScalingPoint, ScalingStudy

__all__ = [
    "PerformanceMetrics",
    "PhaseStats",
    "ScalingPoint",
    "ScalingStudy",
    "derive_metrics",
    "full_report",
    "metrics_from_result",
    "phase_stats",
    "phase_table",
    "profile_section",
    "result_record",
    "speedups",
]
