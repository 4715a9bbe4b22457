"""Multithreaded processors: n threads extrapolated onto m <= n processors.

The paper's §6 extension ("we are currently modifying ExtraP to support
multithreading": extrapolate an n-thread, 1-processor run to an
n-thread, m-processor run).  Threads sharing a processor are scheduled
non-preemptively, as in the pC++ runtime: a thread holds the CPU while
computing and releases it while waiting for a remote reply or a barrier
release, at which point another ready thread (or the request servicer)
takes over.

Model simplifications relative to :class:`repro.sim.simulator.Simulator`
(documented, deliberate):

* remote-request servicing runs as a per-processor server that competes
  for the CPU with the threads — i.e. requests are serviced whenever the
  CPU is free or at thread switch points, the natural policy for a
  multithreaded runtime (the interrupt/poll policies of the
  single-thread model make little sense when blocked threads already
  yield the CPU);
* barriers use the shared-flag protocol costs (entry/exit on the CPU,
  release fires when the last of the n *threads* arrives, plus
  ``model_time`` latency).

Remote accesses between threads on the *same* processor cost only the
local service time, no network traffic — co-scheduling communicating
threads is exactly the locality effect this extension lets you study.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.core.parameters import SimulationParameters
from repro.core.translation import TranslatedProgram
from repro.des import Deadlock, Environment, Event, Resource, Store
from repro.sim.actions import Action, ActionKind
from repro.sim.messages import Message, MsgKind
from repro.sim.network import Network
from repro.trace.trace import TraceMeta


def assign_threads(n_threads: int, n_processors: int, scheme: str = "block") -> List[int]:
    """Thread -> processor map.

    ``block`` packs consecutive threads together (good locality for
    nearest-neighbour codes); ``cyclic`` deals them round-robin.
    """
    if n_processors < 1:
        raise ValueError(f"need at least 1 processor, got {n_processors}")
    if n_processors > n_threads:
        raise ValueError(
            f"{n_processors} processors for {n_threads} threads; the "
            "multithread model requires m <= n"
        )
    if scheme == "block":
        per = -(-n_threads // n_processors)
        return [min(t // per, n_processors - 1) for t in range(n_threads)]
    if scheme == "cyclic":
        return [t % n_processors for t in range(n_threads)]
    raise ValueError(f"unknown assignment scheme {scheme!r}")


@dataclass
class MultithreadStats:
    """Per-processor accounting for the multithread model."""

    pid: int
    threads: List[int] = field(default_factory=list)
    compute_time: float = 0.0
    service_time: float = 0.0
    comm_overhead: float = 0.0
    barrier_overhead: float = 0.0
    requests_served: int = 0
    local_requests: int = 0
    end_time: float = 0.0

    @property
    def busy_total(self) -> float:
        return (
            self.compute_time
            + self.service_time
            + self.comm_overhead
            + self.barrier_overhead
        )


@dataclass
class MultithreadResult:
    """Prediction for an n-thread, m-processor execution."""

    meta: TraceMeta
    params: SimulationParameters
    n_threads: int
    n_processors: int
    assignment: List[int]
    execution_time: float
    processors: List[MultithreadStats]
    thread_end_times: List[float]
    messages: int
    message_bytes: int

    def utilization(self) -> float:
        if self.execution_time <= 0:
            return 0.0
        busy = sum(p.compute_time for p in self.processors)
        return busy / (self.execution_time * self.n_processors)


class _Barrier:
    """Flag-protocol barrier over all n threads."""

    def __init__(self, env: Environment, n_threads: int, model_time: float):
        self.env = env
        self.n = n_threads
        self.model_time = model_time
        self._arrived: Dict[int, int] = {}
        self._released: Dict[int, Event] = {}

    def release_event(self, bid: int) -> Event:
        if bid not in self._released:
            self._released[bid] = Event(self.env)
        return self._released[bid]

    def arrive(self, bid: int) -> Event:
        self._arrived[bid] = self._arrived.get(bid, 0) + 1
        ev = self.release_event(bid)
        if self._arrived[bid] >= self.n and not ev.triggered:
            ev.succeed(delay=self.model_time)
        return ev


class _MTProcessor:
    """One multithreaded processor: CPU resource + inbox + server."""

    def __init__(self, sim: "MultithreadSimulator", pid: int):
        self.sim = sim
        self.env = sim.env
        self.pid = pid
        self.cpu = Resource(sim.env)
        self.inbox: Store = Store(sim.env)
        self.stats = MultithreadStats(pid=pid)

    def deliver(self, msg: Message) -> None:
        self.inbox.put_nowait(msg)

    def _on_cpu(self, duration: float, bucket: str) -> Generator:
        req = self.cpu.request()
        yield req
        if duration > 0:
            yield self.env.timeout(duration)
        self.cpu.release(req)
        setattr(self.stats, bucket, getattr(self.stats, bucket) + duration)

    def server(self) -> Generator:
        """Service requests and route replies, competing for the CPU."""
        pp = self.sim.params.processor
        while True:
            msg: Message = yield self.inbox.get()
            if msg.kind is MsgKind.REPLY:
                self.sim.pending.pop(msg.msg_id).succeed(msg)
                continue
            if msg.kind is not MsgKind.REQUEST:  # pragma: no cover
                raise AssertionError(f"unexpected {msg!r}")
            cost = (
                pp.request_service_time
                + pp.msg_build_time
                + self.sim.network.startup_time(self.pid, msg.src)
            )
            yield from self._on_cpu(cost, "service_time")
            self.stats.requests_served += 1
            self.sim.network.send(
                Message(
                    MsgKind.REPLY,
                    src=self.pid,
                    dst=msg.src,
                    nbytes=msg.reply_nbytes,
                    msg_id=msg.msg_id,
                )
            )

    def run_thread(self, tid: int, actions: List[Action]) -> Generator:
        sim = self.sim
        pp, bp = sim.params.processor, sim.params.barrier
        for action in actions:
            if action.kind is ActionKind.COMPUTE:
                yield from self._on_cpu(
                    action.duration * pp.mips_ratio, "compute_time"
                )
            elif action.kind in (ActionKind.REMOTE_READ, ActionKind.REMOTE_WRITE):
                owner_proc = sim.assignment[action.owner]
                if owner_proc == self.pid:
                    # Same processor: a local (shared-memory) access.
                    yield from self._on_cpu(
                        pp.request_service_time, "service_time"
                    )
                    self.stats.local_requests += 1
                    continue
                mid = next(sim.msg_ids)
                ev = Event(self.env)
                sim.pending[mid] = ev
                yield from self._on_cpu(
                    pp.msg_build_time
                    + sim.network.startup_time(self.pid, owner_proc),
                    "comm_overhead",
                )
                sim.network.send(
                    Message(
                        MsgKind.REQUEST,
                        src=self.pid,
                        dst=owner_proc,
                        nbytes=sim.params.network.request_nbytes,
                        msg_id=mid,
                        reply_nbytes=action.nbytes,
                    )
                )
                yield ev  # CPU is free for other threads while we wait
            elif action.kind is ActionKind.BARRIER:
                yield from self._on_cpu(bp.entry_time, "barrier_overhead")
                release = sim.barrier.arrive(action.barrier_id)
                yield release  # CPU free while waiting
                yield from self._on_cpu(
                    bp.exit_check_time + bp.exit_time, "barrier_overhead"
                )
            elif action.kind is ActionKind.MARK:
                pass
            elif action.kind is ActionKind.END:
                break
            else:  # pragma: no cover - exhaustive
                raise AssertionError(action)
        sim.thread_end_times[tid] = self.env.now
        self.stats.end_time = max(self.stats.end_time, self.env.now)
        sim.thread_done[tid].succeed()


class MultithreadSimulator:
    """Extrapolate an n-thread translated program onto m processors."""

    def __init__(
        self,
        translated: TranslatedProgram,
        params: SimulationParameters,
        n_processors: int,
        *,
        assignment_scheme: str = "block",
        network_factory=None,
    ):
        """``network_factory(env, m, network_params) -> Network`` swaps
        the interconnect model, e.g. a
        :class:`repro.sim.cluster.ClusterNetwork` for multithreaded
        processors grouped into shared-memory clusters."""
        self.translated = translated
        self.params = params
        n = translated.n_threads
        self.assignment = assign_threads(n, n_processors, assignment_scheme)
        self.env = Environment()
        make_network = network_factory or Network
        self.network = make_network(self.env, n_processors, params.network)
        self.barrier = _Barrier(self.env, n, params.barrier.model_time)
        self.msg_ids = itertools.count()
        self.pending: Dict[int, Event] = {}
        self.processors = [_MTProcessor(self, p) for p in range(n_processors)]
        self.network.attach([p.deliver for p in self.processors])
        self.thread_end_times = [0.0] * n
        self.thread_done = [Event(self.env) for _ in range(n)]
        for pid, proc in enumerate(self.processors):
            proc.stats.threads = [
                t for t, a in enumerate(self.assignment) if a == pid
            ]
        self._ran = False

    def run(self) -> MultithreadResult:
        if self._ran:
            raise RuntimeError("simulator already ran; create a new one")
        self._ran = True
        env = self.env
        for tid, actions in enumerate(self.translated.thread_actions()):
            proc = self.processors[self.assignment[tid]]
            env.process(proc.run_thread(tid, actions), name=f"thread{tid}")
        for proc in self.processors:
            env.process(proc.server(), name=f"server{proc.pid}")
        done = env.all_of(self.thread_done)
        try:
            env.run_batched(done)
        except Deadlock:
            stuck = [t for t, ev in enumerate(self.thread_done) if not ev.triggered]
            raise RuntimeError(
                f"multithread deadlock; threads {stuck} stuck"
            ) from None
        env.run(None)
        return MultithreadResult(
            meta=self.translated.meta,
            params=self.params,
            n_threads=self.translated.n_threads,
            n_processors=len(self.processors),
            assignment=list(self.assignment),
            execution_time=max(self.thread_end_times),
            processors=[p.stats for p in self.processors],
            thread_end_times=list(self.thread_end_times),
            messages=self.network.stats.messages,
            message_bytes=self.network.stats.bytes,
        )


def simulate_multithreaded(
    translated: TranslatedProgram,
    params: SimulationParameters,
    n_processors: int,
    *,
    assignment_scheme: str = "block",
) -> MultithreadResult:
    """One-call wrapper around :class:`MultithreadSimulator`."""
    return MultithreadSimulator(
        translated, params, n_processors, assignment_scheme=assignment_scheme
    ).run()
