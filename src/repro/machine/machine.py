"""Direct simulation of benchmark programs on a target machine.

Runs the *same* program factories the tracing runtime accepts (they only
use ``rt.n_threads`` and the ThreadCtx generator API), but every
operation takes simulated time on a message-level machine model:

* ``compute(flops)`` — busy for ``flops / node_mflops``;
* ``get``/``put`` of a remote element — request/reply (or write/ack)
  messages through the port-based fat-tree network
  (:mod:`repro.machine.network`), serviced by the owner's
  active-message handler;
* ``barrier()`` — the control-network hardware barrier.

Each node runs as queued calls on the DES engine, as the replay's
processors do.  The program body stays a generator (the pcxx
``ThreadCtx`` API); each operation queues the call that resumes it
(after a sleep, once a message is injected, when a reply arrives or a
barrier releases) and parks the body until then, so the machine
queues no event at all.  ``Machine.run`` runs the queue until it is
empty and then checks that every node finished.

The result carries the measured execution time and a measured trace
(barrier/remote events with machine timestamps) so the validation
experiment can compare predicted against "measured" performance
information, exactly as Figure 9 does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Set

from repro.des import Environment, Store
from repro.machine.network import PortNetwork, Step, WireMessage
from repro.machine.spec import CM5_SPEC, MachineSpec
from repro.pcxx.collection import Collection, Index
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import ThreadTrace, TraceMeta


@dataclass
class NodeStats:
    """Per-node accounting for the reference machine."""

    pid: int = 0
    compute_time: float = 0.0
    local_accesses: int = 0
    remote_accesses: int = 0
    requests_served: int = 0
    barrier_time: float = 0.0
    comm_wait: float = 0.0
    end_time: float = 0.0


@dataclass
class MachineResult:
    """Measured performance information from one direct-simulated run."""

    meta: TraceMeta
    spec: MachineSpec
    execution_time: float
    nodes: List[NodeStats]
    threads: List[ThreadTrace]
    messages: int = 0
    message_bytes: int = 0

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def summary(self) -> str:
        return (
            f"{self.meta.program or 'program'} on {self.n_nodes}-node "
            f"{self.spec.name}: measured time {self.execution_time:.1f} us, "
            f"{self.messages} messages"
        )


#: What a node operation yields once it has queued the call that
#: resumes the body: the one value a program body may yield.
_PARKED = object()


class _HwBarrier:
    """The control-network barrier: ``latency`` after the last arrival
    of each episode, one queued call resumes its nodes in arrival order."""

    def __init__(self, env: Environment, n: int, latency: float):
        self.env = env
        self.n = n
        self.latency = latency
        self._waiting: Dict[int, List[Step]] = {}

    def arrive(self, bid: int, resume: Step) -> None:
        waiting = self._waiting.setdefault(bid, [])
        waiting.append(resume)
        if len(waiting) == self.n:
            del self._waiting[bid]
            self.env.call_in(self.latency, self._release, waiting)

    @staticmethod
    def _release(waiting: List[Step]) -> None:
        for resume in waiting:
            resume(None)


class Machine:
    """An n-node direct-simulated target machine."""

    def __init__(self, n: int, spec: MachineSpec = CM5_SPEC):
        if n < 1:
            raise ValueError(f"need at least 1 node, got {n}")
        self.n = n
        self.spec = spec
        self.env = Environment()
        self.network = PortNetwork(self.env, n, spec)
        self.barrier = _HwBarrier(self.env, n, spec.barrier_latency)
        self._msg_ids = itertools.count()
        self.nodes: List[MachineNode] = [
            MachineNode(self, pid) for pid in range(n)
        ]
        self.network.attach([node.deliver for node in self.nodes])
        self._ran = False

    @property
    def n_threads(self) -> int:
        """Program factories address the machine like a tracing runtime."""
        return self.n

    def run(self, program_factory: Callable, *, name: str = "") -> MachineResult:
        """Execute a program factory to completion on the machine: run
        the queue until it is empty, then check that every node's body
        finished (``RuntimeError`` naming the ones that did not).

        A finished run then drops the two links that point back at the
        nodes, the network's delivery callbacks and the handlers still
        waiting on the inboxes, so the machine holds no reference cycle
        and is freed by reference counting (docs/ARCHITECTURE.md,
        "Lifetime")."""
        if self._ran:
            raise RuntimeError("machine already ran a program; create a new one")
        self._ran = True
        bodies = program_factory(self)
        if callable(bodies):
            bodies = [bodies] * self.n
        if len(bodies) != self.n:
            raise ValueError(f"{len(bodies)} bodies for {self.n} nodes")
        for node, body in zip(self.nodes, bodies):
            node.start(body)
        self.env.run()
        stuck = [nd.pid for nd in self.nodes if not nd.finished]
        if stuck:
            raise RuntimeError(f"machine deadlocked; nodes {stuck} never finished")
        self.network.detach()
        for nd in self.nodes:
            nd.inbox.drop_waiters()
        return MachineResult(
            meta=TraceMeta(program=name, n_threads=self.n, size_mode="actual"),
            spec=self.spec,
            execution_time=max(nd.stats.end_time for nd in self.nodes),
            nodes=[nd.stats for nd in self.nodes],
            threads=[ThreadTrace(nd.pid, nd.out_events) for nd in self.nodes],
            messages=self.network.stats.messages,
            message_bytes=self.network.stats.bytes,
        )


class MachineNode:
    """One node: the program thread plus its active-message handler.

    Presents the same generator API as
    :class:`repro.pcxx.runtime.ThreadCtx`, so benchmark bodies run
    unmodified.  Each operation queues the call that resumes the body
    and then yields ``_PARKED``; ``get`` and ``put`` of a remote element
    send the request :class:`WireMessage` and then wait for its reply.
    """

    def __init__(self, machine: Machine, pid: int):
        # The parts of the machine a node uses, not the machine itself,
        # which holds the nodes: no reference cycle.
        self.env = machine.env
        self.spec = machine.spec
        self.network = machine.network
        self._hw_barrier = machine.barrier
        self._msg_ids = machine._msg_ids
        self.pid = pid
        self.tid = pid  # ThreadCtx-compatible alias
        self.n_threads = machine.n
        self.inbox: Store = Store(self.env)
        #: ids of the requests still waiting for a reply
        self.pending: Set[int] = set()
        self.stats = NodeStats(pid=pid)
        self.out_events: List[TraceEvent] = []
        self.finished = False
        self._body: Generator | None = None
        self._barrier_seq = 0

    # -- ThreadCtx-compatible introspection ---------------------------------

    @property
    def now(self) -> float:
        return self.env.now

    def local_indices(self, coll: Collection) -> List[Index]:
        return coll.local_indices(self.pid)

    def _record(self, kind: EventKind, **kw) -> None:
        self.out_events.append(TraceEvent(self.env.now, self.pid, kind, **kw))

    # -- callback steps -------------------------------------------------------

    def start(self, body: Callable) -> None:
        """Start the program thread, then the handler, at the current time."""
        self.env.call_first(self._begin, body)
        self.env.call_first(self._await_message)

    def _begin(self, body: Callable) -> None:
        self._record(EventKind.THREAD_BEGIN)
        self._body = body(self)
        self._resume(None)

    def _resume(self, value: Any) -> None:
        """Send ``value`` into the body, which runs until its next
        operation has queued the call that resumes it."""
        try:
            op = self._body.send(value)
        except StopIteration:
            self._record(EventKind.THREAD_END)
            self.stats.end_time = self.env.now
            self.finished = True
            return
        if op is not _PARKED:
            raise RuntimeError(
                f"node {self.pid}: program yielded {op!r}, "
                "expected a ThreadCtx operation"
            )

    # Active-message handler: services remote requests concurrently with
    # computation (network-interface work, not node CPU).

    def _await_message(self, _arg: Any = None) -> None:
        self.inbox.get_then(self._on_message)

    def _on_message(self, msg: WireMessage) -> None:
        if msg.kind in ("reply", "write_ack"):
            if msg.msg_id not in self.pending:
                raise RuntimeError(
                    f"node {self.pid}: unexpected {msg.kind} id={msg.msg_id}"
                )
            self.pending.remove(msg.msg_id)
            self.env.call_in(0.0, self._resume, msg)
            self._await_message()
            return
        self.env.call_in(self.spec.service_time, self._serve, msg)

    def _serve(self, msg: WireMessage) -> None:
        self.stats.requests_served += 1
        if msg.kind == "request":
            # Read the element *now* (the program's barrier discipline
            # guarantees read/write phases do not overlap).
            reply = WireMessage(
                "reply",
                src=self.pid,
                dst=msg.src,
                nbytes=msg.reply_nbytes,
                msg_id=msg.msg_id,
                payload=msg.coll._load(msg.index),
            )
        elif msg.kind == "write":
            msg.coll._store(msg.index, msg.payload)
            reply = WireMessage(
                "write_ack", src=self.pid, dst=msg.src, nbytes=0, msg_id=msg.msg_id
            )
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unhandled message kind {msg.kind}")
        self.network.send(reply, self._await_message)

    def deliver(self, msg: WireMessage) -> None:
        self.inbox.put_nowait(msg)

    # -- ThreadCtx-compatible operations ----------------------------------------

    def _sleep(self, delay: float) -> object:
        """Queue the call that resumes the body ``delay`` from now."""
        self.env.call_in(delay, self._resume)
        return _PARKED

    def compute(self, flops: float) -> Generator:
        if flops < 0:
            raise ValueError(f"negative flop count {flops}")
        dt = flops / self.spec.node_mflops
        yield self._sleep(dt)
        self.stats.compute_time += dt

    def compute_us(self, us: float) -> Generator:
        if us < 0:
            raise ValueError(f"negative compute time {us}")
        yield self._sleep(us)
        self.stats.compute_time += us

    def get(self, coll: Collection, index: Index, nbytes: int | None = None) -> Generator:
        owner = coll.owner(index)
        if owner == self.pid:
            self.stats.local_accesses += 1
            if self.spec.local_access_time:
                yield self._sleep(self.spec.local_access_time)
            return coll._load(index)
        reply_nbytes = nbytes if nbytes is not None else coll.element_nbytes
        self._record(
            EventKind.REMOTE_READ,
            owner=owner,
            nbytes=int(reply_nbytes),
            collection=coll.name,
        )
        mid = next(self._msg_ids)
        self.pending.add(mid)
        t0 = self.env.now
        request = WireMessage(
            "request",
            src=self.pid,
            dst=owner,
            nbytes=self.spec.request_nbytes,
            msg_id=mid,
            coll=coll,
            index=index,
            reply_nbytes=int(reply_nbytes),
        )
        self.network.send(request, self._resume)
        yield _PARKED
        reply = yield _PARKED  # the handler resumes the body with it
        self.stats.remote_accesses += 1
        self.stats.comm_wait += self.env.now - t0
        return reply.payload

    def put(
        self, coll: Collection, index: Index, value: Any, nbytes: int | None = None
    ) -> Generator:
        owner = coll.owner(index)
        if owner == self.pid:
            self.stats.local_accesses += 1
            coll._store(index, value)
            if self.spec.local_access_time:
                yield self._sleep(self.spec.local_access_time)
            return
        wire_nbytes = nbytes if nbytes is not None else coll.element_nbytes
        self._record(
            EventKind.REMOTE_WRITE,
            owner=owner,
            nbytes=int(wire_nbytes),
            collection=coll.name,
        )
        mid = next(self._msg_ids)
        self.pending.add(mid)
        t0 = self.env.now
        write = WireMessage(
            "write",
            src=self.pid,
            dst=owner,
            nbytes=int(wire_nbytes),
            msg_id=mid,
            coll=coll,
            index=index,
            payload=value,
        )
        self.network.send(write, self._resume)
        yield _PARKED
        yield _PARKED  # the handler resumes the body with the ack
        self.stats.remote_accesses += 1
        self.stats.comm_wait += self.env.now - t0

    def barrier(self) -> Generator:
        bid = self._barrier_seq
        self._barrier_seq += 1
        t0 = self.env.now
        self._record(EventKind.BARRIER_ENTER, barrier_id=bid)
        if self.spec.barrier_entry_time:
            yield self._sleep(self.spec.barrier_entry_time)
        self._hw_barrier.arrive(bid, self._resume)
        yield _PARKED
        if self.spec.barrier_exit_time:
            yield self._sleep(self.spec.barrier_exit_time)
        self._record(EventKind.BARRIER_EXIT, barrier_id=bid)
        self.stats.barrier_time += self.env.now - t0

    def mark(self, tag: str) -> Generator:
        self._record(EventKind.MARK, tag=tag)
        return
        yield  # pragma: no cover


def run_on_machine(
    program_factory: Callable,
    n: int,
    *,
    spec: MachineSpec = CM5_SPEC,
    name: str = "",
) -> MachineResult:
    """Convenience: build a machine, run the program, return the result."""
    return Machine(n, spec).run(program_factory, name=name)
