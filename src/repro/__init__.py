"""repro — Performance Extrapolation of Parallel Programs (ExtraP).

A reproduction of Shanmugam, Malony & Mohr, *Performance Extrapolation
of Parallel Programs* (ICPP 1995): predict the performance of an
n-thread data-parallel program on an n-processor target machine from a
high-level event trace of the same program multiplexed on one processor.

Quickstart::

    from repro import extrapolate, measure, presets
    from repro.bench.grid import GridConfig, make_program

    maker = make_program(GridConfig())
    trace = measure(maker(8), 8, name="grid")          # 8 threads, 1 cpu
    outcome = extrapolate(trace, presets.cm5())         # predict 8-proc CM-5
    print(outcome.predicted_time, "us")
    print(outcome.result.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import presets
from repro.core.parameters import (
    BarrierAlgorithm,
    BarrierParams,
    NetworkParams,
    ProcessorParams,
    RemoteServicePolicy,
    SimulationParameters,
)
from repro.core.pipeline import (
    ExtrapolationOutcome,
    extrapolate,
    measure,
    measure_and_extrapolate,
)
from repro.core.translation import TranslatedProgram, translate
from repro.metrics import PerformanceMetrics, derive_metrics
from repro.pcxx import Collection, Dist, ThreadCtx, TracingRuntime, make_distribution
from repro.sim import SimulationResult, simulate
from repro.trace import Trace, read_trace, write_trace

__version__ = "1.0.0"

__all__ = [
    "BarrierAlgorithm",
    "BarrierParams",
    "Collection",
    "Dist",
    "ExtrapolationOutcome",
    "NetworkParams",
    "PerformanceMetrics",
    "ProcessorParams",
    "RemoteServicePolicy",
    "SimulationParameters",
    "SimulationResult",
    "ThreadCtx",
    "Trace",
    "TracingRuntime",
    "TranslatedProgram",
    "__version__",
    "derive_metrics",
    "extrapolate",
    "make_distribution",
    "measure",
    "measure_and_extrapolate",
    "presets",
    "read_trace",
    "simulate",
    "translate",
    "write_trace",
]
