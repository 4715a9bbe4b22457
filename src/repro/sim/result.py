"""Simulation results: the predicted performance information PI2p.

:class:`SimulationResult` bundles everything the simulator produced —
predicted execution time, per-processor time breakdowns, extrapolated
per-thread event traces, network statistics — from which
:mod:`repro.metrics` derives the predicted performance metrics PM2p.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.trace.events import EventKind
from repro.trace.trace import ThreadTrace, TraceMeta

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.parameters import SimulationParameters
    from repro.faults.injector import FaultStats
    from repro.obs.recorder import Timeline
    from repro.perf import SimulationProfile
    from repro.sim.network import NetworkStats

#: Busy-time categories tracked per processor.
CATEGORIES = (
    "compute",
    "comm_overhead",
    "service",
    "barrier_overhead",
    "interrupt_overhead",
    "poll_overhead",
)


@dataclass
class ProcessorStats:
    """Per-processor accounting (all times in microseconds).

    Busy time is split into categories (:data:`CATEGORIES`); waits are
    measured as elapsed-minus-busy over the waiting interval, split into
    ``comm_wait`` (blocked on a remote reply) and ``barrier_wait``
    (inside a barrier episode, excluding busy barrier overhead).
    """

    pid: int = 0
    categories: Dict[str, float] = field(
        default_factory=lambda: {c: 0.0 for c in CATEGORIES}
    )
    busy_total: float = 0.0
    comm_wait: float = 0.0
    barrier_wait: float = 0.0
    end_time: float = 0.0
    remote_accesses: int = 0
    requests_served: int = 0
    interrupts: int = 0
    polls: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    # -- fault-model counters (non-zero only under a fault plan) ---------
    #: remote-access retransmissions issued after a reply timeout
    retries: int = 0
    #: reply timeouts observed (every retry starts with one)
    timeouts: int = 0
    #: replies/acks that arrived for an already-completed request
    #: (late duplicates from retransmission or network duplication)
    late_replies: int = 0
    #: remote accesses abandoned after exhausting the retry budget
    retry_giveups: int = 0
    #: compute actions that ran slowed by a straggler interval
    stragglers: int = 0
    #: extra busy time those straggler intervals cost
    straggler_time: float = 0.0
    #: barrier arrivals the fault plan delayed
    barrier_delays: int = 0

    def add(self, category: str, duration: float) -> None:
        """Record ``duration`` of busy time under ``category``."""
        self.categories[category] += duration
        self.busy_total += duration

    @property
    def compute_time(self) -> float:
        return self.categories["compute"]

    @property
    def comm_time(self) -> float:
        """Total time attributable to communication (overhead + wait + service)."""
        return (
            self.categories["comm_overhead"]
            + self.categories["service"]
            + self.comm_wait
        )

    @property
    def barrier_time(self) -> float:
        """Total time attributable to barriers (overhead + wait)."""
        return self.categories["barrier_overhead"] + self.barrier_wait

    @property
    def idle_fraction(self) -> float:
        """Fraction of this processor's lifetime spent waiting."""
        if self.end_time <= 0:
            return 0.0
        return (self.comm_wait + self.barrier_wait) / self.end_time


@dataclass
class SimulationResult:
    """Everything one extrapolation run produced."""

    meta: TraceMeta
    params: "SimulationParameters"
    execution_time: float
    processors: List[ProcessorStats]
    threads: List[ThreadTrace]
    network: "NetworkStats"
    barrier_count: int = 0
    #: the processor that hosted each thread (``assignment[t]``); None
    #: for a result not simulated end-to-end
    assignment: Optional[List[int]] = None
    #: engine counters + phase timers; set when the simulator ran with
    #: ``profile=True`` (see :class:`repro.perf.SimulationProfile`)
    profile: Optional["SimulationProfile"] = None
    #: recorded timeline of the simulated execution; set when the
    #: simulator ran with ``observe=True`` (see :mod:`repro.obs`)
    timeline: Optional["Timeline"] = None
    #: injected-fault counters; set when the simulation ran under a
    #: non-null fault plan (see :mod:`repro.faults`)
    faults: Optional["FaultStats"] = None
    #: True when this result was *reconstituted* from representative
    #: intervals rather than simulated end-to-end (see
    #: :mod:`repro.sampling`); metrics are weight-combined estimates
    #: with error bars in :attr:`sampling`.
    estimated: bool = False
    #: sampling plan, cluster weights, and per-metric error bars for an
    #: estimated result (see :func:`repro.sampling.estimate_sampled`);
    #: None for an exact, fully-simulated result
    sampling: Optional[Dict[str, object]] = None

    @property
    def n_processors(self) -> int:
        return len(self.processors)

    # -- aggregate metrics -------------------------------------------------------

    def total_compute_time(self) -> float:
        return sum(p.compute_time for p in self.processors)

    def total_comm_time(self) -> float:
        return sum(p.comm_time for p in self.processors)

    def total_barrier_time(self) -> float:
        return sum(p.barrier_time for p in self.processors)

    def fault_totals(self) -> Dict[str, float]:
        """Summed fault-protocol counters across processors + network.

        All zeros for a fault-free run; cheap enough to call
        unconditionally from reporting code.
        """
        return {
            "retries": sum(p.retries for p in self.processors),
            "timeouts": sum(p.timeouts for p in self.processors),
            "late_replies": sum(p.late_replies for p in self.processors),
            "retry_giveups": sum(p.retry_giveups for p in self.processors),
            "stragglers": sum(p.stragglers for p in self.processors),
            "straggler_time": sum(p.straggler_time for p in self.processors),
            "barrier_delays": sum(p.barrier_delays for p in self.processors),
            "messages_dropped": self.network.dropped,
            "messages_duplicated": self.network.duplicated,
            "total_jitter": self.network.total_jitter,
        }

    def local_accesses(self) -> int:
        """Remote accesses whose owner shared the accessing thread's
        processor (served locally, no message; 0 with one thread per
        processor)."""
        assignment = self.assignment
        return sum(
            1
            for tt in self.threads
            for ev in tt.events
            if ev.kind in (EventKind.REMOTE_READ, EventKind.REMOTE_WRITE)
            and assignment[ev.owner] == assignment[tt.thread]
        )

    def comp_comm_ratio(self) -> float:
        """Computation / communication ratio (inf when no communication)."""
        comm = self.total_comm_time()
        comp = self.total_compute_time()
        return comp / comm if comm > 0 else float("inf")

    def utilization(self) -> float:
        """Mean fraction of processor lifetime spent computing."""
        if self.execution_time <= 0 or self.n_processors == 0:
            return 0.0
        return self.total_compute_time() / (
            self.execution_time * self.n_processors
        )

    def breakdown_rows(self) -> List[List[float]]:
        """Per-processor [pid, compute, comm_overhead, service, comm_wait,
        barrier_overhead, barrier_wait, end_time] rows for reporting."""
        rows = []
        for p in self.processors:
            rows.append(
                [
                    p.pid,
                    p.categories["compute"],
                    p.categories["comm_overhead"],
                    p.categories["service"],
                    p.comm_wait,
                    p.categories["barrier_overhead"],
                    p.barrier_wait,
                    p.end_time,
                ]
            )
        return rows

    def summary(self) -> str:
        """One-line summary of the prediction."""
        marker = " [sampled estimate]" if self.estimated else ""
        return (
            f"{self.meta.program or 'program'} on {self.n_processors} procs "
            f"({self.params.name}): predicted time {self.execution_time:.1f} us, "
            f"utilization {self.utilization():.2%}, "
            f"{self.network.messages} messages / {self.network.bytes} bytes"
            f"{marker}"
        )
