"""Ablation studies on the simulator's design choices.

Not figures from the paper, but sweeps over the substitutable model
components the paper's simulation architecture advertises (§3.3): the
barrier algorithm, the interconnect topology, the analytical contention
model, the poll interval, and instrumentation-overhead compensation in
the translation step.

The grid-shaped ablations (barrier, topology, contention, poll, noise)
route their extrapolations through the sweep executor
(:func:`repro.sweep.executor.extrapolate_many`): pass ``jobs=N`` — the
CLI's ``extrap experiment NAME --jobs N`` does — to fan the grid across
worker processes with results identical to the serial loop.  The fault
sweep reads fault totals that the result record does not carry, and
the placement ablation passes a placement to ``simulate``; both stay
serial loops.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.bench.cyclic import make_program as make_cyclic
from repro.bench.grid import make_program as make_grid
from repro.bench.suite import BENCHMARKS
from repro.core.parameters import SimulationParameters
from repro.core.pipeline import extrapolate, measure
from repro.core.translation import translate
from repro.experiments.base import ExperimentResult, predicted_series
from repro.experiments.paramsets import (
    PROCESSOR_COUNTS,
    cyclic_config,
    figure4_params,
    grid_config,
)
from repro.pcxx.runtime import TracingRuntime
from repro.sim.topology import available_topologies
from repro.trace.trace import Trace


def _grid_series(
    traces: Dict[int, Trace],
    variants: Sequence[Tuple[str, SimulationParameters]],
    counts: Sequence[int],
    *,
    jobs: int = 1,
) -> Dict[str, Dict[int, float]]:
    """Predicted times for every (variant, count) cell of an ablation grid.

    Cells run variant-major, count-minor, and come back in the
    ``{variant: {count: time}}`` shape the experiment tables use.
    """
    cells = ((label, p, traces[p], params) for label, params in variants for p in counts)
    return predicted_series(cells, jobs=jobs)


def barrier_algorithms(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    jobs: int = 1,
) -> ExperimentResult:
    """Linear vs logarithmic vs hardware barriers on Cyclic.

    The linear master–slave barrier is the paper's upper bound; the tree
    cuts the master's serial arrival processing; hardware is the floor.
    """
    counts = BENCHMARKS["cyclic"].counts(processor_counts)
    maker = make_cyclic(cyclic_config(quick=quick))
    base = figure4_params()
    result = ExperimentResult(
        name="ablation-barrier",
        title="Barrier algorithm ablation (Cyclic execution time)",
        ylabel="execution time (us)",
    )
    traces = {p: measure(maker(p), p, name="cyclic") for p in counts}
    variants = [
        (alg, base.with_(barrier={"algorithm": alg}))
        for alg in ("linear", "log", "hardware")
    ]
    result.series = _grid_series(traces, variants, counts, jobs=jobs)
    top = max(counts)
    lin, log_, hw = (result.series[a][top] for a in ("linear", "log", "hardware"))
    result.notes.append(
        f"at P={top}: linear {lin:.0f} us >= log {log_:.0f} us >= "
        f"hardware {hw:.0f} us expected"
    )
    return result


def topologies(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = (8, 16, 32),
    jobs: int = 1,
) -> ExperimentResult:
    """Interconnect topology sweep on Grid (actual transfer sizes)."""
    maker = make_grid(grid_config(quick=quick))
    base = figure4_params()
    result = ExperimentResult(
        name="ablation-topology",
        title="Topology ablation (Grid execution time, actual sizes)",
        ylabel="execution time (us)",
    )
    traces = {
        p: measure(maker(p), p, name="grid", size_mode="actual")
        for p in processor_counts
    }
    variants = [
        (topo, base.with_(network={"topology": topo}))
        for topo in available_topologies()
    ]
    result.series = _grid_series(traces, variants, processor_counts, jobs=jobs)
    top = max(processor_counts)
    bus = result.series["bus"][top]
    xbar = result.series["crossbar"][top]
    result.notes.append(
        f"at P={top}: bus {bus:.0f} us vs crossbar {xbar:.0f} us "
        "(bisection-1 bus should be slowest under contention)"
    )
    return result


def contention(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = (8, 16, 32),
    jobs: int = 1,
) -> ExperimentResult:
    """Analytical contention model on/off and strength sweep (Grid)."""
    maker = make_grid(grid_config(quick=quick))
    base = figure4_params().with_(network={"topology": "bus"})
    result = ExperimentResult(
        name="ablation-contention",
        title="Contention-model ablation (Grid on a bus)",
        ylabel="execution time (us)",
    )
    traces = {
        p: measure(maker(p), p, name="grid", size_mode="actual")
        for p in processor_counts
    }
    variants = [
        (label, base.with_(network=overrides))
        for label, overrides in [
            ("off", {"contention": False}),
            ("factor=0.5", {"contention": True, "contention_factor": 0.5}),
            ("factor=1.0", {"contention": True, "contention_factor": 1.0}),
            ("factor=2.0", {"contention": True, "contention_factor": 2.0}),
        ]
    ]
    result.series = _grid_series(traces, variants, processor_counts, jobs=jobs)
    return result


def poll_interval(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = (8, 16, 32),
    jobs: int = 1,
) -> ExperimentResult:
    """Poll-interval sweep on Cyclic ("an optimal choice of the polling
    interval is certainly system and likely problem specific")."""
    counts = BENCHMARKS["cyclic"].counts(processor_counts)
    maker = make_cyclic(cyclic_config(quick=quick))
    base = figure4_params()
    result = ExperimentResult(
        name="ablation-poll",
        title="Poll interval sweep (Cyclic execution time)",
        ylabel="execution time (us)",
    )
    traces = {p: measure(maker(p), p, name="cyclic") for p in counts}
    variants = [
        (
            f"poll@{interval:g}us",
            base.with_(processor={"policy": "poll", "poll_interval": interval}),
        )
        for interval in (25.0, 100.0, 400.0, 1600.0)
    ]
    result.series = _grid_series(traces, variants, counts, jobs=jobs)
    return result


def placement(
    *, quick: bool = True, processor_counts: Sequence[int] = (8, 16, 32)
) -> ExperimentResult:
    """Processor-mapping extrapolation (§2's "processor mappings" axis).

    Grid's traffic is nearest-neighbour on the patch grid; on a 2-D mesh
    the natural row-major placement keeps it short-range while a
    stride-shuffled placement stretches every exchange across the
    machine.
    """
    from repro.sim.simulator import simulate

    maker = make_grid(grid_config(quick=quick))
    base = figure4_params().with_(
        network={"topology": "mesh2d", "hop_time": 10.0}
    )
    result = ExperimentResult(
        name="ablation-placement",
        title="Processor-mapping ablation (Grid on a 2-D mesh)",
        ylabel="execution time (us)",
    )
    natural: dict = {}
    shuffled: dict = {}
    for p in processor_counts:
        trace = measure(maker(p), p, name="grid", size_mode="actual")
        tp = translate(trace)
        natural[p] = simulate(tp, base).execution_time
        # Deterministic adjacency-breaking shuffle (stride isqrt(p)+1).
        stride = int(p**0.5) + 1
        perm = sorted(range(p), key=lambda t: (t * stride) % p * p + t)
        shuffled[p] = simulate(tp, base, placement=perm).execution_time
    result.series["natural placement"] = natural
    result.series["shuffled placement"] = shuffled
    top = max(processor_counts)
    result.notes.append(
        f"at P={top}: natural {natural[top]:.0f} us vs shuffled "
        f"{shuffled[top]:.0f} us "
        f"(+{shuffled[top] / natural[top] - 1:.1%} from longer routes)"
    )
    return result


def noise_sensitivity(
    *, quick: bool = True, n_threads: int = 16, trials: int = 5, jobs: int = 1
) -> ExperimentResult:
    """Prediction robustness under measurement noise (§2's uncertainty).

    Re-measures Grid with increasing relative timing noise on compute
    phases and reports the spread of the resulting predictions.  A
    technique whose predictions scatter wildly under small measurement
    jitter would be useless for ranking design alternatives; this
    quantifies how far that is from the case.
    """
    maker = make_grid(grid_config(quick=quick))
    params = figure4_params()
    result = ExperimentResult(
        name="ablation-noise",
        title="Prediction spread under measurement noise (Grid)",
        ylabel="predicted execution time (us)",
    )

    def measured(noise: float, trial: int) -> Trace:
        return measure(
            maker(n_threads), n_threads, name="grid", size_mode="actual",
            compute_noise=noise, noise_seed=1000 + trial,
        )

    noises = (0.0, 0.02, 0.05, 0.10, 0.20)
    cells = [
        (f"noise={noise:.0%}", trial, measured(noise, trial), params)
        for noise in noises
        for trial in range(1 if noise == 0.0 else trials)
    ]
    predicted = predicted_series(cells, jobs=jobs)
    for noise, (label, by_trial) in zip(noises, predicted.items()):
        times = sorted(by_trial.values())
        result.series[label] = {i + 1: t for i, t in enumerate(times)}
        if noise > 0:
            spread = (times[-1] - times[0]) / times[0]
            result.notes.append(
                f"{label}: prediction spread {spread:.1%} over {trials} trials"
            )
    return result


def fault_sweep(
    *, quick: bool = True, n_threads: int = 16
) -> ExperimentResult:
    """Prediction degradation on an unreliable machine (message loss).

    Extrapolates one Grid trace under fault plans of increasing message
    loss (with the timeout/retry recovery protocol armed) and reports
    the predicted time and the recovery traffic.  Loss 0 is the ideal
    machine and must reproduce the fault-free prediction exactly.
    """
    from dataclasses import replace

    from repro.faults.plan import FaultPlan

    maker = make_grid(grid_config(quick=quick))
    base = figure4_params()
    result = ExperimentResult(
        name="ablation-faults",
        title="Fault-injection sweep (Grid under message loss + retry)",
        ylabel="predicted execution time (us)",
    )
    trace = measure(maker(n_threads), n_threads, name="grid", size_mode="actual")
    times: dict = {}
    for i, loss in enumerate((0.0, 0.01, 0.05, 0.10)):
        if loss == 0.0:
            params = base
        else:
            plan = FaultPlan(
                seed=42,
                msg_loss_rate=loss,
                request_timeout=20_000.0,
                max_retries=8,
            )
            params = replace(base, faults=plan)
        outcome = extrapolate(trace, params)
        times[i + 1] = outcome.predicted_time
        totals = outcome.result.fault_totals()
        result.notes.append(
            f"loss={loss:.0%}: {outcome.predicted_time:.0f} us, "
            f"{totals['messages_dropped']} drops, "
            f"{totals['retries']} retries, "
            f"{totals['retry_giveups']} give-ups"
        )
    result.series["msg loss 0/1/5/10%"] = times
    if times[2] < times[1]:
        result.notes.append(
            "warning: 1% loss predicted faster than fault-free "
            "(unexpected; check the recovery protocol)"
        )
    return result


def overhead_compensation(
    *, quick: bool = True, n_threads: int = 8
) -> ExperimentResult:
    """Translation-time compensation of instrumentation overhead.

    Measures Grid with a per-event recording overhead, then translates
    with and without compensation; the compensated ideal time should
    match the unperturbed measurement's.
    """
    from repro.bench.grid import make_program

    cfg = grid_config(quick=quick)
    maker = make_program(cfg)
    overhead = 50.0
    result = ExperimentResult(
        name="ablation-overhead",
        title="Instrumentation-overhead compensation in translation",
        ylabel="ideal execution time (us)",
    )
    clean = measure(maker(n_threads), n_threads, name="grid")
    perturbed = measure(
        maker(n_threads), n_threads, name="grid", event_overhead=overhead
    )
    t_clean = translate(clean).ideal_execution_time()
    t_raw = translate(perturbed).ideal_execution_time()
    t_comp = translate(
        perturbed, event_overhead=overhead
    ).ideal_execution_time()
    result.series["ideal time"] = {
        1: t_clean,
        2: t_raw,
        3: t_comp,
    }
    result.notes.append(
        f"clean measurement: {t_clean:.0f} us; perturbed (+{overhead:g}us/event): "
        f"{t_raw:.0f} us; compensated: {t_comp:.0f} us "
        f"(residual {abs(t_comp - t_clean) / t_clean:.2%})"
    )
    return result
