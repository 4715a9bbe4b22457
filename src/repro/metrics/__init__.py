"""Performance metrics (PM): quantities derived from performance information.

The paper defines a performance metric as "a measure of the quality of a
parallel program", always relative to an execution environment.  This
package derives the metrics the evaluation uses — execution time,
speedup, efficiency, computation/communication ratio, utilisation,
barrier statistics — from :class:`~repro.sim.result.SimulationResult`
objects.  :func:`~repro.metrics.metrics.result_record` is the one
JSON-safe record of an extrapolation: sweeps, serve and every grid run
through :func:`repro.sweep.executor.extrapolate_many` return it.
:func:`~repro.metrics.metrics.speedups` turns a ``{processors: time}``
mapping into a speedup curve.
"""

from repro.metrics.metrics import (
    PerformanceMetrics,
    derive_metrics,
    result_record,
    speedups,
)
from repro.metrics.phases import PhaseStats, phase_stats, phase_table
from repro.metrics.report import full_report, profile_section

__all__ = [
    "PerformanceMetrics",
    "PhaseStats",
    "derive_metrics",
    "full_report",
    "phase_stats",
    "phase_table",
    "profile_section",
    "result_record",
    "speedups",
]
