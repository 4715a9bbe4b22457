"""Representative simulation and whole-run reconstitution.

Given a :class:`~repro.sampling.cluster.SamplingPlan`, each cluster's
medoid interval is lifted into a standalone sub-trace (synthetic
``THREAD_BEGIN``/``THREAD_END`` delimiters; the begin is stamped at the
thread's previous event time so the leading compute gap survives
translation) and run through the ordinary
:func:`repro.core.pipeline.extrapolate`.  Everything up to that run —
split, plan, scales, representative sub-traces and their translations —
depends only on the trace and the config, so :func:`prepare_sampling`
builds it once as a :class:`SamplingPrep` that a
:class:`~repro.core.pipeline.PreparedTrace` keeps per config; each
machine point then only simulates.  Whole-run metrics are then the
cluster-weighted sums of the representatives' metrics: barriers
synchronise the program between intervals, so interval times — and all
additive counters — compose by addition.

Error bars are heuristic, not statistical: for each metric the bar is
``sum_c weight_c * metric_c * spread_c`` where ``spread_c`` is the mean
distance of cluster members to the representative in normalised
signature space.  A perfectly periodic program has spread 0 and an
exact estimate; the bar grows with within-cluster heterogeneity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.pipeline import ExtrapolationOutcome, PreparedTrace, extrapolate
from repro.des.engine import SimulationStalled
from repro.sampling.cluster import SamplingPlan, build_plan
from repro.sampling.config import SamplingConfig
from repro.sampling.intervals import Interval, IntervalSplit, split_trace
from repro.sim.network import NetworkStats
from repro.sim.result import ProcessorStats, SimulationResult
from repro.trace.events import EventKind, TraceEvent
from repro.trace.stats import TraceStats
from repro.trace.trace import ThreadTrace, Trace, TraceMeta

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.parameters import SimulationParameters

#: Integer per-processor counters that scale with cluster weight.
_SCALED_COUNTERS = (
    "remote_accesses",
    "requests_served",
    "interrupts",
    "polls",
    "messages_sent",
    "messages_received",
    "retries",
    "timeouts",
    "late_replies",
    "retry_giveups",
    "stragglers",
    "barrier_delays",
)


def representative_trace(meta: TraceMeta, interval: Interval) -> Trace:
    """Lift one interval into a standalone, structurally valid trace.

    Per thread: keep the interval's events; if the thread's slice does
    not already start with ``THREAD_BEGIN``, prepend a synthetic one at
    the thread's previous-event time (so translation preserves the
    compute gap that crossed the interval boundary); if it does not end
    with ``THREAD_END``, append one at the slice's last event time.
    Threads absent from the interval get a zero-length begin/end pair.
    """
    per: List[List[TraceEvent]] = [[] for _ in range(meta.n_threads)]
    for ev in interval.events:
        per[ev.thread].append(ev)

    threads: List[ThreadTrace] = []
    for t, evs in enumerate(per):
        anchor = interval.prev_times.get(t, interval.first_time)
        if not evs:
            evs = [
                TraceEvent(time=anchor, thread=t, kind=EventKind.THREAD_BEGIN),
                TraceEvent(time=anchor, thread=t, kind=EventKind.THREAD_END),
            ]
        else:
            if evs[0].kind != EventKind.THREAD_BEGIN:
                evs = [
                    TraceEvent(
                        time=anchor, thread=t, kind=EventKind.THREAD_BEGIN
                    )
                ] + evs
            if evs[-1].kind != EventKind.THREAD_END:
                evs = evs + [
                    TraceEvent(
                        time=evs[-1].time, thread=t, kind=EventKind.THREAD_END
                    )
                ]
        threads.append(ThreadTrace(t, evs))
    return Trace.from_thread_traces(meta, threads)


@dataclass
class SampledOutcome:
    """Sampled counterpart of :class:`ExtrapolationOutcome`.

    Duck-types the attributes reporting code reads (``trace``,
    ``trace_stats``, ``result``, ``predicted_time``, ``ideal_time``) so
    :func:`repro.metrics.report.predict_summary` works unchanged, while
    carrying the sampling plan and the per-representative outcomes for
    inspection.
    """

    trace: Trace
    trace_stats: TraceStats
    #: synthetic, weight-combined result (``estimated=True``)
    result: SimulationResult
    plan: SamplingPlan
    #: representative interval index -> its full extrapolation outcome
    representatives: Dict[int, ExtrapolationOutcome]
    #: events actually simulated (sum of representative sub-traces)
    events_simulated: int
    #: weight-combined ideal (zero-cost-communication) time estimate
    ideal_time_estimate: float
    #: sampled outcomes carry no whole-run translated program
    translated: None = None

    @property
    def predicted_time(self) -> float:
        return self.result.execution_time

    @property
    def ideal_time(self) -> float:
        return self.ideal_time_estimate


@dataclass(frozen=True)
class _ClusterScales:
    """Per-cluster multipliers for each metric family.

    Time-like metrics use the plain member-count weight: the measured
    (1-processor) interval duration is a poor proxy for the simulated
    n-processor time, and benchmarking showed the duration-ratio
    estimator consistently *hurts* accuracy there.  Additive event
    counts are different — members' signature covariates count exactly
    the events being estimated — so message counts scale by the ratio
    of the members' remote-event sum to the representative's, byte
    totals by remote byte totals, and barrier counts by barrier-exit
    counts (classic ratio estimators, exact for homogeneous phases).  A
    zero covariate on the representative falls back to the plain
    weight.
    """

    time: float
    msgs: float
    bytes: float
    barriers: float


def _covariate_ratio(
    split: IntervalSplit, cluster, dims: Tuple[int, ...]
) -> float:
    rep = sum(split.intervals[cluster.representative].signature[d] for d in dims)
    if rep <= 0.0:
        return float(cluster.weight)
    total = sum(
        split.intervals[m].signature[d] for m in cluster.members for d in dims
    )
    return total / rep


def _cluster_scales(split: IntervalSplit, plan: SamplingPlan) -> List[_ClusterScales]:
    from repro.sampling.intervals import SIGNATURE_FIELDS

    dim = {name: i for i, name in enumerate(SIGNATURE_FIELDS)}
    scales = []
    for cluster in plan.clusters:
        scales.append(
            _ClusterScales(
                time=float(cluster.weight),
                msgs=_covariate_ratio(
                    split,
                    cluster,
                    (dim["n_remote_read"], dim["n_remote_write"]),
                ),
                bytes=_covariate_ratio(
                    split, cluster, (dim["read_bytes"], dim["write_bytes"])
                ),
                barriers=_covariate_ratio(
                    split, cluster, (dim["n_barrier_exit"],)
                ),
            )
        )
    return scales


@dataclass(frozen=True)
class SamplingPrep:
    """A trace's sampling plan under one config: all work before simulation."""

    config: SamplingConfig
    split: IntervalSplit
    plan: SamplingPlan
    #: per cluster, in cluster order
    scales: List[_ClusterScales]
    #: per cluster, its medoid interval as a prepared sub-trace
    representatives: List[PreparedTrace]

    @property
    def events_simulated(self) -> int:
        """Events one estimate simulates (all representative sub-traces)."""
        return sum(len(rep.trace.events) for rep in self.representatives)


def prepare_sampling(
    trace: "Trace | PreparedTrace", config: SamplingConfig
) -> SamplingPrep:
    """Split, cluster and lift representatives; no simulation.

    Representatives are translated on their first simulation.  Raises
    :class:`ValueError` for an empty trace.
    """
    trace = PreparedTrace.of(trace).trace
    if not trace.events:
        raise ValueError("cannot sample an empty trace (no events)")
    split = split_trace(trace, config)
    plan = build_plan(split, config)
    representatives = [
        PreparedTrace(
            representative_trace(
                trace.meta, split.intervals[cluster.representative]
            )
        )
        for cluster in plan.clusters
    ]
    return SamplingPrep(
        config, split, plan, _cluster_scales(split, plan), representatives
    )


def _weighted_result(
    trace: Trace,
    params: "SimulationParameters",
    prep: SamplingPrep,
    outcomes: List[ExtrapolationOutcome],
) -> SimulationResult:
    plan, scales = prep.plan, prep.scales
    n_proc = len(outcomes[0].result.processors)
    procs = [ProcessorStats(pid=p) for p in range(n_proc)]
    net = NetworkStats()
    by_kind: Dict[str, float] = {}
    execution_time = 0.0
    barrier_count = 0.0

    for cluster, scale, outcome in zip(plan.clusters, scales, outcomes):
        r = outcome.result
        execution_time += scale.time * r.execution_time
        barrier_count += scale.barriers * r.barrier_count
        for dst, src in zip(procs, r.processors):
            for cat, v in src.categories.items():
                dst.categories[cat] += scale.time * v
            dst.busy_total += scale.time * src.busy_total
            dst.comm_wait += scale.time * src.comm_wait
            dst.barrier_wait += scale.time * src.barrier_wait
            dst.end_time += scale.time * src.end_time
            dst.straggler_time += scale.time * src.straggler_time
            for name in _SCALED_COUNTERS:
                setattr(
                    dst,
                    name,
                    getattr(dst, name) + scale.msgs * getattr(src, name),
                )
        rn = r.network
        net.messages += scale.msgs * rn.messages
        net.bytes += scale.bytes * rn.bytes
        net.total_wire_time += scale.msgs * rn.total_wire_time
        net.total_contention_delay += scale.msgs * rn.total_contention_delay
        net.total_jitter += scale.msgs * rn.total_jitter
        net.dropped += scale.msgs * rn.dropped
        net.duplicated += scale.msgs * rn.duplicated
        net.max_in_flight = max(net.max_in_flight, rn.max_in_flight)
        for kind, count in rn.by_kind.items():
            by_kind[kind] = by_kind.get(kind, 0.0) + scale.msgs * count

    # Count-like fields stay integers in the synthetic result (rounded
    # once, deterministically).
    net.messages = int(round(net.messages))
    net.bytes = int(round(net.bytes))
    net.dropped = int(round(net.dropped))
    net.duplicated = int(round(net.duplicated))
    net.by_kind = {k: int(round(v)) for k, v in sorted(by_kind.items())}
    for dst in procs:
        for name in _SCALED_COUNTERS:
            setattr(dst, name, int(round(getattr(dst, name))))

    def bar(scale_of, per_cluster: List[float]) -> Dict[str, float]:
        value = sum(
            scale_of(s) * m for s, m in zip(scales, per_cluster)
        )
        error = sum(
            scale_of(s) * abs(m) * c.spread
            for c, s, m in zip(plan.clusters, scales, per_cluster)
        )
        return {
            "value": value,
            "error": error,
            "relative_error": error / abs(value) if value else 0.0,
        }

    error_bars = {
        "predicted_time_us": bar(
            lambda s: s.time, [o.result.execution_time for o in outcomes]
        ),
        "compute_time_us": bar(
            lambda s: s.time, [o.result.total_compute_time() for o in outcomes]
        ),
        "message_count": bar(
            lambda s: s.msgs, [float(o.result.network.messages) for o in outcomes]
        ),
        "message_bytes": bar(
            lambda s: s.bytes, [float(o.result.network.bytes) for o in outcomes]
        ),
    }

    sampling = {
        "config": prep.config.canonical_dict(),
        "plan": plan.to_dict(),
        "scales": [
            {
                "time": s.time,
                "msgs": s.msgs,
                "bytes": s.bytes,
                "barriers": s.barriers,
            }
            for s in scales
        ],
        "events_total": prep.split.events_total,
        "events_simulated": prep.events_simulated,
        "error_bars": error_bars,
    }
    return SimulationResult(
        meta=trace.meta,
        params=params,
        execution_time=execution_time,
        processors=procs,
        threads=[],
        network=net,
        barrier_count=int(round(barrier_count)),
        estimated=True,
        sampling=sampling,
    )


def estimate_sampled(
    trace: "Trace | PreparedTrace",
    params: "SimulationParameters",
    config: Optional[SamplingConfig] = None,
    *,
    wall_clock_budget: Optional[float] = None,
) -> SampledOutcome:
    """Sampled counterpart of :func:`repro.core.pipeline.extrapolate`.

    Splits, clusters, simulates one representative per phase, and
    returns the weight-combined estimate.  Deterministic for a fixed
    ``config.seed``.  Raises :class:`ValueError` for an empty trace.
    A :class:`~repro.core.pipeline.PreparedTrace` reuses the plan it
    already holds for ``config``; a plain trace is planned afresh.

    ``wall_clock_budget`` (real seconds) caps the whole call, planning
    included: each representative runs on what is left, and running out
    raises :class:`~repro.des.engine.SimulationStalled`.
    """
    start = time.monotonic()
    prepared = PreparedTrace.of(trace)
    prep = prepared.sampling(config or SamplingConfig())
    clusters = prep.plan.clusters

    outcomes: List[ExtrapolationOutcome] = []
    representatives: Dict[int, ExtrapolationOutcome] = {}
    ideal = 0.0
    for done, (cluster, scale, rep) in enumerate(
        zip(clusters, prep.scales, prep.representatives)
    ):
        remaining = None
        if wall_clock_budget is not None:
            remaining = wall_clock_budget - (time.monotonic() - start)
            if remaining <= 0:
                raise SimulationStalled(
                    f"wall-clock budget of {wall_clock_budget:g}s exceeded "
                    f"({done} of {len(clusters)} representatives "
                    "simulated)"
                )
        outcome = extrapolate(rep, params, wall_clock_budget=remaining)
        outcomes.append(outcome)
        representatives[cluster.representative] = outcome
        ideal += scale.time * outcome.ideal_time

    return SampledOutcome(
        trace=prepared.trace,
        trace_stats=prepared.stats,
        result=_weighted_result(prepared.trace, params, prep, outcomes),
        plan=prep.plan,
        representatives=representatives,
        events_simulated=prep.events_simulated,
        ideal_time_estimate=ideal,
    )


# -- reporting ---------------------------------------------------------------


def _members_preview(members, limit: int = 12) -> str:
    ids = list(members)
    if len(ids) <= limit:
        return ",".join(str(i) for i in ids)
    head = ",".join(str(i) for i in ids[:limit])
    return f"{head},... ({len(ids)} total)"


def plan_report(meta: TraceMeta, split: IntervalSplit, plan: SamplingPlan) -> str:
    """Human-readable sampling plan (``extrap validate --sample-report``)."""
    lines = [
        f"sampling plan: {meta.program or 'program'}, {meta.n_threads} threads",
        f"  mode: {plan.mode}"
        + (
            f" (interval_events={plan.interval_events})"
            if plan.mode == "events"
            else ""
        ),
        f"  intervals: {plan.n_intervals}  events: {plan.events_total}",
        f"  chosen k: {plan.k} (max {plan.max_phases}, seed {plan.seed})",
    ]
    total = sum(c.weight for c in plan.clusters) or 1
    for i, c in enumerate(plan.clusters):
        share = c.weight / total
        lines.append(
            f"  phase {i}: representative interval {c.representative}, "
            f"weight {c.weight} ({share:.1%}), spread {c.spread:.4f}"
        )
        lines.append(f"    members: {_members_preview(c.members)}")
    return "\n".join(lines)


def sample_report(trace: Trace, config: Optional[SamplingConfig] = None) -> str:
    """Build and format a sampling plan for a trace without simulating."""
    prep = prepare_sampling(trace, config or SamplingConfig())
    return plan_report(trace.meta, prep.split, prep.plan)


def sampling_section(result: SimulationResult) -> str:
    """Error-bar block appended to ``extrap predict --sample`` output."""
    info = result.sampling or {}
    plan = info.get("plan", {})
    bars = info.get("error_bars", {})
    ev_total = info.get("events_total", 0)
    ev_sim = info.get("events_simulated", 0)
    saved = ev_total - ev_sim
    pct = saved / ev_total if ev_total else 0.0
    lines = [
        "sampling:",
        f"  phases: {plan.get('k', '?')} of {plan.get('n_intervals', '?')} "
        f"intervals ({plan.get('mode', '?')} mode, seed {plan.get('seed', '?')})",
        f"  events simulated: {ev_sim} of {ev_total} "
        f"({pct:.1%} saved)",
    ]
    for name in (
        "predicted_time_us",
        "compute_time_us",
        "message_count",
        "message_bytes",
    ):
        if name in bars:
            b = bars[name]
            lines.append(
                f"  {name}: {b['value']:.1f} +/- {b['error']:.1f} "
                f"({b['relative_error']:.2%})"
            )
    return "\n".join(lines)
