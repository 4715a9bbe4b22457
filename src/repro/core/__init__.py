"""ExtraP core: the performance-extrapolation pipeline.

The pipeline (paper Figure 2):

1. measure — run the n-thread program on 1 virtual processor
   (:class:`repro.pcxx.TracingRuntime`) producing a merged :class:`Trace`;
2. translate — :func:`repro.core.translation.translate` rebases the merged
   trace into n per-thread traces of an *ideal* parallel execution;
3. simulate — :class:`repro.sim.Simulator` replays the translated traces
   under a target-environment :class:`SimulationParameters`;
4. analyse — :mod:`repro.metrics` derives predicted performance metrics.

:mod:`repro.core.pipeline` wires the four stages into one call, and its
:class:`~repro.core.pipeline.PreparedTrace` keeps the trace-only work
(translation, sampling plans) for reuse across environments;
:mod:`repro.core.memo` shares prepared traces within a process.
"""

from repro.core.parameters import (
    BarrierAlgorithm,
    BarrierParams,
    NetworkParams,
    ProcessorParams,
    RemoteServicePolicy,
    SimulationParameters,
)
from repro.core import presets
from repro.core.translation import TranslatedProgram, translate
from repro.core.pipeline import (
    ExtrapolationOutcome,
    PreparedTrace,
    extrapolate,
    measure,
)

__all__ = [
    "BarrierAlgorithm",
    "BarrierParams",
    "ExtrapolationOutcome",
    "NetworkParams",
    "PreparedTrace",
    "ProcessorParams",
    "RemoteServicePolicy",
    "SimulationParameters",
    "TranslatedProgram",
    "extrapolate",
    "measure",
    "presets",
    "translate",
]
