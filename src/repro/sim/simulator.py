"""The trace-driven extrapolation simulator: wiring and run loop."""

from __future__ import annotations

import contextlib
import itertools
import time
from math import inf
from typing import List, Optional, Sequence

from repro.core.parameters import SimulationParameters
from repro.core.translation import TranslatedProgram
from repro.des import Environment, SimulationStalled, Watchdog
from repro.faults.injector import FaultInjector
from repro.obs.recorder import TimelineRecorder
from repro.perf import PhaseTimer, SimulationProfile
from repro.sim.barrier import BarrierCoordinator
from repro.sim.network import Network
from repro.sim.processor import SimProcessor
from repro.sim.result import SimulationResult
from repro.trace.trace import ThreadTrace


def _untimed(_name: str) -> contextlib.nullcontext:
    """Stand-in for ``PhaseTimer.phase`` when profiling is off."""
    return contextlib.nullcontext()


class Simulator:
    """Replays a translated program under target-environment parameters.

    Usage::

        sim = Simulator(translated, params)
        result = sim.run()
    """

    def __init__(
        self,
        translated: TranslatedProgram,
        params: SimulationParameters,
        *,
        assignment: Optional[Sequence[int]] = None,
        max_events: int = 50_000_000,
        placement=None,
        profile: bool = False,
        observe: bool = False,
        wall_clock_budget: Optional[float] = None,
    ):
        """``assignment[t]`` is the processor that hosts thread ``t``
        (default: thread ``t`` on processor ``t``, the paper's model).
        Processors are ``0 .. max(assignment)`` and each must host a
        thread; one hosting k > 1 threads runs them non-preemptively
        (the §6 extension, see :mod:`repro.sim.processor`).

        ``placement`` maps logical processors to physical topology
        positions (the §2 "processor mapping" axis).

        ``profile=True`` turns on engine counters and per-phase timers;
        the result carries a :class:`~repro.perf.SimulationProfile`.
        Profiled runs produce identical simulation results but run
        slower, since the engine counts every event.

        ``observe=True`` records an event-level timeline of the simulated
        execution (spans, instants, counter series — see
        :mod:`repro.obs`); the result carries it as
        ``SimulationResult.timeline``.  The recorder attaches to
        ``env.obs`` before the model components are built.  Simulation
        results are identical with it on or off.

        When ``params.faults`` is a non-null
        :class:`~repro.faults.plan.FaultPlan`, a
        :class:`~repro.faults.injector.FaultInjector` attaches to
        ``env.faults`` the same way; a null or absent plan attaches
        nothing and stays byte-identical to the ideal machine.

        ``wall_clock_budget`` (real seconds, None = unlimited) bounds the
        run; it and the watchdog's fixed no-progress window each raise
        :class:`~repro.des.engine.SimulationStalled` naming the blocked
        processors and pending barriers instead of hanging.
        """
        if translated.n_threads < 1:
            raise ValueError("translated program has no threads")
        self.translated = translated
        self.params = params
        self.max_events = max_events
        self.wall_clock_budget = wall_clock_budget
        n = translated.n_threads
        self.assignment = _check_assignment(assignment, n)
        m = max(self.assignment) + 1

        self.env = Environment()
        self.recorder: Optional[TimelineRecorder] = None
        if observe:
            self.recorder = TimelineRecorder()
            self.env.obs = self.recorder
        self.injector: Optional[FaultInjector] = None
        fault_plan = getattr(params, "faults", None)
        if fault_plan is not None and not fault_plan.is_null():
            self.injector = FaultInjector(fault_plan)
            self.env.faults = self.injector
        self.profile: Optional[SimulationProfile] = None
        if profile:
            self.profile = SimulationProfile(
                counters=self.env.enable_profiling(),
                timers=PhaseTimer(self.env),
            )
        self.network = Network(
            self.env, m, params.network, placement=placement
        )
        self.coordinator = BarrierCoordinator(self.env, m, params.barrier)
        msg_ids = itertools.count()
        hosted: List[list] = [[] for _ in range(m)]
        for tid, actions in enumerate(translated.thread_actions()):
            hosted[self.assignment[tid]].append((tid, actions))
        self.processors: List[SimProcessor] = [
            SimProcessor(
                self.env,
                pid,
                params,
                self.network,
                self.coordinator,
                threads,
                msg_ids,
                self.assignment,
            )
            for pid, threads in enumerate(hosted)
        ]
        self.network.attach([p.deliver for p in self.processors])
        self._ran = False

    def run(self) -> SimulationResult:
        """Run the simulation to completion and collect the result."""
        if self._ran:
            raise RuntimeError("simulator already ran; create a new one")
        self._ran = True
        wall0 = time.perf_counter()
        env = self.env
        phase = self.profile.timers.phase if self.profile is not None else _untimed
        with phase("spawn"):
            self._spawn()
        with phase("replay"):
            self._replay()
        with phase("collect"):
            result = self._collect()
        self._release()

        if self.profile is not None:
            self.profile.wall_time_s = time.perf_counter() - wall0
            self.profile.sim_time_us = env.now
            result.profile = self.profile
        return result

    def _release(self) -> None:
        """Break the finished replay's reference cycles, one step per
        component (docs/ARCHITECTURE.md, "Lifetime"), so the simulator
        is freed by reference counting, not by the cyclic collector."""
        self.network.detach()
        self.coordinator.release()
        for p in self.processors:
            p.release()

    def _spawn(self) -> None:
        """Queue each processor's start, in processor order, ahead of
        same-time ordinary events (priority -1)."""
        for p in self.processors:
            self.env.call_first(p.start)

    def _replay(self) -> None:
        """Run the event queue until it is empty (the hot loop).

        Finished processors keep serving, so the run also drains the
        messages still in flight when the last replay ends (late
        replies, releases already en route).  The loop runs in
        watchdog-sized chunks; after each chunk the watchdog compares
        wall clock and forward progress so a stuck run (bad fault plan,
        malformed trace) degrades to a diagnosable
        :class:`SimulationStalled` instead of a hang.  So does a queue
        that empties with a processor unfinished.
        """
        env = self.env
        watchdog = Watchdog(wall_clock_budget=self.wall_clock_budget)
        while True:
            remaining = self.max_events - env.processed_event_count
            if remaining <= 0 and env.peek() < inf:
                raise RuntimeError(
                    f"simulation exceeded {self.max_events} events "
                    "(runaway or max_events set too low)"
                )
            if env.run(max_events=min(remaining, watchdog.check_interval)):
                break
            reason = watchdog.check(
                env.processed_event_count, self._progress()
            )
            if reason is not None:
                raise self._stalled(reason)
        if not all(p.finished for p in self.processors):
            raise self._stalled(
                "the event queue drained with processors still blocked"
            )

    def _progress(self):
        """Watchdog progress token: changes whenever real work completed."""
        done = 0
        actions = 0
        for p in self.processors:
            if p.finished:
                done += 1
            actions += p.actions_done
        return done, actions

    def _stalled(self, reason: str) -> SimulationStalled:
        """Build a one-line :class:`SimulationStalled` diagnosis."""
        blocked = [
            (p.pid, _stuck_threads(p))
            for p in self.processors
            if not p.finished
        ]
        pending = self.coordinator.pending_barriers()
        parts = [f"simulation stalled at t={self.env.now:.1f} us: {reason}"]
        if blocked:
            shown = ", ".join(f"proc {pid}: {why}" for pid, why in blocked[:4])
            if len(blocked) > 4:
                shown += f", and {len(blocked) - 4} more"
            parts.append(f"blocked processors [{shown}]")
        if pending:
            shown = ", ".join(
                f"barrier {bid} ({status})" for bid, status in pending[:3]
            )
            if len(pending) > 3:
                shown += f", and {len(pending) - 3} more"
            parts.append(f"pending {shown}")
        return SimulationStalled(
            "; ".join(parts), blocked=blocked, pending_barriers=pending
        )

    def _collect(self) -> SimulationResult:
        threads = sorted(
            (ThreadTrace(t.tid, t.events) for p in self.processors for t in p.threads),
            key=lambda tt: tt.thread,
        )
        execution_time = max(p.stats.end_time for p in self.processors)
        timeline = None
        if self.recorder is not None:
            timeline = self.recorder.finalize(
                n_procs=len(self.processors),
                end_time=execution_time,
                program=self.translated.meta.program or "",
                params_name=self.params.name,
            )
        return SimulationResult(
            meta=self.translated.meta,
            params=self.params,
            execution_time=execution_time,
            processors=[p.stats for p in self.processors],
            threads=threads,
            network=self.network.stats,
            barrier_count=len(self.coordinator.history),
            assignment=self.assignment,
            timeline=timeline,
            faults=self.injector.stats if self.injector is not None else None,
        )


def assign_threads(n_threads: int, n_processors: int, scheme: str = "block") -> List[int]:
    """Thread -> processor map for ``n_threads`` threads on
    ``n_processors <= n_threads`` processors (the §6 extension).

    ``block`` packs consecutive threads together (good locality for
    nearest-neighbour codes), ⌊n/m⌋ or ⌈n/m⌉ to a processor; ``cyclic``
    deals them round-robin.
    """
    if n_processors < 1:
        raise ValueError(f"need at least 1 processor, got {n_processors}")
    if n_processors > n_threads:
        raise ValueError(
            f"{n_processors} processors for {n_threads} threads; the "
            "multithread model requires m <= n"
        )
    if scheme == "block":
        return [t * n_processors // n_threads for t in range(n_threads)]
    if scheme == "cyclic":
        return [t % n_processors for t in range(n_threads)]
    raise ValueError(f"unknown assignment scheme {scheme!r}")


def _check_assignment(assignment: Optional[Sequence[int]], n: int) -> List[int]:
    """The thread -> processor map, validated (identity when None)."""
    if assignment is None:
        return list(range(n))
    assignment = [int(p) for p in assignment]
    if len(assignment) != n:
        raise ValueError(
            f"assignment maps {len(assignment)} threads; the program has {n}"
        )
    if min(assignment) < 0:
        raise ValueError(f"negative processor in assignment {assignment}")
    idle = sorted(set(range(max(assignment) + 1)) - set(assignment))
    if idle:
        raise ValueError(f"processors {idle} host no thread in {assignment}")
    return assignment


def _stuck_threads(proc: SimProcessor) -> str:
    """Why ``proc`` has not finished: its unfinished threads' reasons."""
    if len(proc.threads) == 1:
        return proc.threads[0].blocked_reason or "replay not finished"
    return ", ".join(
        f"thread {t.tid}: {t.blocked_reason or 'replay not finished'}"
        for t in proc.threads
        if not t.finished
    )


def simulate(
    translated: TranslatedProgram, params: SimulationParameters, **options
) -> SimulationResult:
    """``Simulator(translated, params, **options).run()``; the options
    and their defaults are :class:`Simulator`'s."""
    return Simulator(translated, params, **options).run()
