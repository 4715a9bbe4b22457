"""Experiment registry and dispatch (used by the CLI and benches)."""

from __future__ import annotations

import difflib
import inspect
from typing import Callable, Dict

from repro.experiments import (
    ablations,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    multithread_study,
    validation,
)
from repro.experiments.base import ExperimentResult
from repro.util.log import get_logger

log = get_logger("experiments")

#: name -> callable(quick=...) returning an ExperimentResult
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "validation-suite": validation.run,
    "ablation-barrier": ablations.barrier_algorithms,
    "ablation-topology": ablations.topologies,
    "ablation-contention": ablations.contention,
    "ablation-poll": ablations.poll_interval,
    "ablation-placement": ablations.placement,
    "ablation-noise": ablations.noise_sensitivity,
    "ablation-overhead": ablations.overhead_compensation,
    "ablation-faults": ablations.fault_sweep,
    "ablation-multithread": multithread_study.run,
}


def run_experiment(
    name: str, *, quick: bool = True, jobs: int = 1, **kwargs
) -> ExperimentResult:
    """Run one experiment by registry name.

    ``jobs`` is forwarded to experiments whose run function accepts it:
    the figures, ``validation-suite`` and the grid-shaped ablations fan
    their extrapolations across processes through one
    :func:`repro.sweep.executor.extrapolate_many` call each.  The other
    ablations run serially.
    """
    key = name.strip().lower()
    try:
        fn = EXPERIMENTS[key]
    except KeyError:
        close = difflib.get_close_matches(key, sorted(EXPERIMENTS), n=3)
        hint = (
            f"; did you mean {', '.join(repr(c) for c in close)}?" if close else ""
        )
        raise ValueError(
            f"unknown experiment {name!r}{hint}; available: {sorted(EXPERIMENTS)}"
        ) from None
    if jobs != 1 and "jobs" in inspect.signature(fn).parameters:
        kwargs["jobs"] = jobs
    log.debug("running experiment %s (quick=%s)", name, quick)
    return fn(quick=quick, **kwargs)
