"""Scalar performance metrics derived from simulation results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.sim.result import SimulationResult


@dataclass(frozen=True)
class PerformanceMetrics:
    """Predicted performance metrics for one (program, environment) pair.

    All times in microseconds.
    """

    execution_time: float
    n_processors: int
    speedup: Optional[float]
    efficiency: Optional[float]
    comp_comm_ratio: float
    utilization: float
    compute_time_total: float
    comm_time_total: float
    barrier_time_total: float
    barrier_count: int
    messages: int
    message_bytes: int


def derive_metrics(
    result: SimulationResult, baseline_time: float | None = None
) -> PerformanceMetrics:
    """Derive metrics from one simulation result.

    ``baseline_time`` is the 1-processor execution time in the *same*
    target environment; speedup/efficiency are None without it.  A
    degenerate result (zero/negative ``execution_time``, or no
    processors) also yields ``None`` for both rather than raising.
    """
    n = result.n_processors
    speedup = efficiency = None
    if baseline_time is not None:
        if baseline_time <= 0:
            raise ValueError(f"baseline time must be positive, got {baseline_time}")
        if result.execution_time > 0 and n > 0:
            speedup = baseline_time / result.execution_time
            efficiency = speedup / n
    return PerformanceMetrics(
        execution_time=result.execution_time,
        n_processors=n,
        speedup=speedup,
        efficiency=efficiency,
        comp_comm_ratio=result.comp_comm_ratio(),
        utilization=result.utilization(),
        compute_time_total=result.total_compute_time(),
        comm_time_total=result.total_comm_time(),
        barrier_time_total=result.total_barrier_time(),
        barrier_count=result.barrier_count,
        messages=result.network.messages,
        message_bytes=result.network.bytes,
    )


def speedups(times: Mapping[int, float]) -> Dict[int, float]:
    """Speedup curve from a {processors: time} mapping.

    The baseline is the smallest processor count present (normally 1).

    >>> speedups({1: 100.0, 2: 50.0, 4: 30.0})
    {1: 1.0, 2: 2.0, 4: 3.3333333333333335}
    """
    if not times:
        return {}
    base_p = min(times)
    base = times[base_p]
    if base <= 0:
        raise ValueError(f"non-positive baseline time {base} at P={base_p}")
    out: Dict[int, float] = {}
    for p in sorted(times):
        t = times[p]
        if t <= 0:
            raise ValueError(f"non-positive time {t} at P={p}")
        out[p] = base / t
    return out


def result_record(outcome) -> Dict[str, Any]:
    """The JSON-safe extrapolation metrics payload.

    Shared vocabulary between the sweep cache, sweep artifacts and the
    serve API's ``metrics`` object — one schema, one place.  Sampled
    estimates additionally carry ``estimated: true`` plus a ``sampling``
    summary (config, chosen k, events simulated, error bars), so an
    estimate can never be mistaken for an exact result downstream.
    """
    r = outcome.result
    record = {
        "predicted_time_us": r.execution_time,
        "ideal_time_us": outcome.ideal_time,
        "utilization": r.utilization(),
        "compute_time_us": r.total_compute_time(),
        "comm_time_us": r.total_comm_time(),
        "barrier_time_us": r.total_barrier_time(),
        "message_count": r.network.messages,
        "message_bytes": r.network.bytes,
        "barrier_count": r.barrier_count,
        "n_threads": r.meta.n_threads,
    }
    if getattr(r, "estimated", False):
        info = r.sampling or {}
        plan = info.get("plan", {})
        record["estimated"] = True
        record["sampling"] = {
            "config": info.get("config"),
            "mode": plan.get("mode"),
            "k": plan.get("k"),
            "n_intervals": plan.get("n_intervals"),
            "events_total": info.get("events_total"),
            "events_simulated": info.get("events_simulated"),
            "error_bars": info.get("error_bars"),
        }
    return record
