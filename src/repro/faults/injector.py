"""The fault injector: turns a :class:`FaultPlan` into per-event decisions.

One injector is created per simulation (when the plan is non-null) and
attached to the engine's ``Environment.faults`` slot before the model
components are built — the same capture-at-construction pattern as the
observability slot, so custom network factories inherit fault injection
for free and the zero-fault path pays exactly one ``is None`` test per
hook site.

Each fault category draws from its own RNG stream derived from the plan
seed, so the loss schedule does not shift when, say, jitter is turned
on, and two runs of the same (trace, parameters, plan) triple are
event-for-event identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.faults.plan import FaultPlan
from repro.util.rng import spawn_rngs


@dataclass
class FaultStats:
    """Aggregate injected-fault counters for one simulation."""

    messages_dropped: int = 0
    messages_duplicated: int = 0
    jitter_messages: int = 0
    total_jitter: float = 0.0
    stragglers: int = 0
    straggler_extra_time: float = 0.0
    barrier_delays: int = 0
    barrier_delay_time: float = 0.0
    dropped_by_kind: Dict[str, int] = field(default_factory=dict)


class FaultInjector:
    """Deterministic per-event fault decisions for one simulation run."""

    def __init__(self, plan: FaultPlan):
        if plan.is_null():
            raise ValueError(
                "refusing to build an injector for a null fault plan; "
                "attach nothing instead so results stay byte-identical"
            )
        self.plan = plan
        (
            self._loss_rng,
            self._dup_rng,
            self._jitter_rng,
            self._straggler_rng,
            self._barrier_rng,
        ) = spawn_rngs(plan.seed, 5)
        self._loss_kinds = frozenset(plan.loss_kinds)
        self.stats = FaultStats()

    # -- network hooks ------------------------------------------------------

    def message_fate(self, kind: str) -> Tuple[bool, bool, float]:
        """Decide ``(dropped, duplicated, extra_latency_us)`` for one send.

        Called once per :meth:`repro.sim.network.Network.send` in
        injection order; the decision order (loss, then duplication,
        then jitter) is fixed so schedules are stable.
        """
        p = self.plan
        stats = self.stats
        dropped = duplicated = False
        if kind in self._loss_kinds:
            if p.msg_loss_rate and self._loss_rng.random() < p.msg_loss_rate:
                dropped = True
                stats.messages_dropped += 1
                stats.dropped_by_kind[kind] = (
                    stats.dropped_by_kind.get(kind, 0) + 1
                )
            elif p.msg_dup_rate and self._dup_rng.random() < p.msg_dup_rate:
                duplicated = True
                stats.messages_duplicated += 1
        extra = 0.0
        if p.msg_jitter and not dropped:
            extra = float(self._jitter_rng.random()) * p.msg_jitter
            if extra > 0.0:
                stats.jitter_messages += 1
                stats.total_jitter += extra
        return dropped, duplicated, extra

    # -- processor hooks ------------------------------------------------------

    def straggle_factor(self) -> float:
        """Slowdown multiplier for one compute action (1.0 = healthy)."""
        p = self.plan
        if p.straggler_rate and self._straggler_rng.random() < p.straggler_rate:
            self.stats.stragglers += 1
            return p.straggler_factor
        return 1.0

    def note_straggler_time(self, extra_us: float) -> None:
        """Account the extra busy time a straggling action cost."""
        self.stats.straggler_extra_time += extra_us

    # -- barrier hooks ------------------------------------------------------

    def barrier_arrival_delay(self) -> float:
        """Extra delay before one processor enters one barrier episode."""
        p = self.plan
        if (
            p.barrier_delay_rate
            and p.barrier_delay > 0.0
            and self._barrier_rng.random() < p.barrier_delay_rate
        ):
            self.stats.barrier_delays += 1
            self.stats.barrier_delay_time += p.barrier_delay
            return p.barrier_delay
        return 0.0
