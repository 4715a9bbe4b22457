"""Simulation observability: timelines of the *simulated* execution.

ExtraP's whole method is trace-driven — it turns one merged trace into
per-thread extrapolated traces — yet until this package the simulator
only reported end-of-run aggregates.  :mod:`repro.obs` records the
event-level timeline of the simulated n-processor run: who computed,
waited, serviced remote requests and sat in barriers, and *when*.  That
is what lets a user see why a prediction came out the way it did.

The pieces:

* :class:`TimelineRecorder` (:mod:`repro.obs.recorder`) — the narrow
  hook interface (``span`` / ``instant`` / ``counter``) the simulation
  models call at the points where they already account busy/wait time.
  Components reach it through the engine's ``Environment.obs`` slot;
  when it is ``None`` (the default) every hook site is a single pointer
  test, so the fast path keeps its throughput.
* :mod:`repro.obs.samplers` — derived series (bucketed busy fractions,
  utilization, thinned counter points).
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable,
  deterministic, round-trips through :func:`load_chrome_trace`) and
  counter CSV.
* :mod:`repro.obs.gantt` — terminal Gantt rendering.

Turn it on with ``Simulator(..., observe=True)`` /
``extrapolate(..., observe=True)`` — the result then carries a
:class:`Timeline` as ``SimulationResult.timeline`` — or from the CLI
with ``extrap predict TRACE --timeline out.json`` and explore with
``extrap timeline out.json --ascii``.
"""

from repro.obs.export import (
    chrome_trace_json,
    counters_csv,
    load_chrome_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_counters_csv,
)
from repro.obs.gantt import ascii_gantt
from repro.obs.recorder import (
    CounterSeries,
    Instant,
    Span,
    Timeline,
    TimelineRecorder,
    WAIT_CATEGORIES,
)
from repro.obs.samplers import (
    busy_fraction_series,
    counter_points,
    utilization_series,
)

__all__ = [
    "CounterSeries",
    "Instant",
    "Span",
    "Timeline",
    "TimelineRecorder",
    "WAIT_CATEGORIES",
    "ascii_gantt",
    "busy_fraction_series",
    "chrome_trace_json",
    "counter_points",
    "counters_csv",
    "load_chrome_trace",
    "to_chrome_trace",
    "utilization_series",
    "write_chrome_trace",
    "write_counters_csv",
]
