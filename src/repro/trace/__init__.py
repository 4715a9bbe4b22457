"""Event traces: the performance information (PI) of the paper.

A 1-processor n-thread run of a pC++-style program produces a merged
:class:`Trace` of high-level events (barrier entry/exit, remote element
accesses, thread begin/end).  The trace is the *only* thing the
extrapolation pipeline consumes from the measured environment: inter-event
times encode thread computation; the event sequence encodes all
inter-thread interaction.

Submodules:

* :mod:`repro.trace.events`   — event kinds and the event record
* :mod:`repro.trace.trace`    — merged and per-thread trace containers
* :mod:`repro.trace.io`       — JSONL and binary trace files
* :mod:`repro.trace.stats`    — trace statistics (as used in §4.1)
* :mod:`repro.trace.validate` — structural well-formedness checks
"""

from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import ThreadTrace, Trace, TraceMeta, digest_events
from repro.trace.io import (
    TraceReadError,
    read_trace,
    write_trace,
)
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.validate import TraceValidationError, validate_trace

__all__ = [
    "EventKind",
    "TraceEvent",
    "ThreadTrace",
    "Trace",
    "TraceMeta",
    "digest_events",
    "TraceReadError",
    "read_trace",
    "write_trace",
    "TraceStats",
    "compute_stats",
    "TraceValidationError",
    "validate_trace",
]
