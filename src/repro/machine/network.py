"""Port-based fat-tree network for the reference machine.

More detailed than the extrapolation simulator's analytical contention:
every message individually occupies its source node's injection port and
its destination node's ejection port for ``bytes * byte_time`` each, so
endpoint contention (the dominant effect on a CM-5-class fat tree, which
preserves bisection bandwidth) is *simulated*, message by message, with
FIFO queueing on each port.

``send(msg, then)`` is a chain of steps, each a queued call
(:meth:`~repro.des.Environment.call_in`): the sender is busy for the
software start-up and until its injection port accepts the message, and
``then`` runs once injection finishes.  The rest of the transfer (switch
hops, ejection, delivery) is a detached chain that starts from a
:meth:`~repro.des.Environment.call_first` call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.des import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.spec import MachineSpec
    from repro.pcxx.collection import Collection, Index

#: A step of a chain of queued calls, called with the call's argument
#: (``None`` on the network's chains).
Step = Callable[[Any], None]


@dataclass
class WireMessage:
    """A message on the reference machine's data network."""

    kind: str  # request | reply | write | write_ack
    src: int
    dst: int
    nbytes: int
    msg_id: int
    coll: Optional["Collection"] = None
    index: Optional["Index"] = None
    payload: Any = None
    reply_nbytes: int = 0


@dataclass
class PortNetworkStats:
    messages: int = 0
    bytes: int = 0


class _Port:
    """A one-slot FIFO: held by one message, the others wait in order.

    A claim is granted through one queued call, and a release hands the
    slot straight to the oldest waiter, so a claim made at the same
    time as a release queues behind it.
    """

    __slots__ = ("env", "held", "waiters")

    def __init__(self, env: Environment):
        self.env = env
        self.held = False
        self.waiters: deque = deque()

    def claim(self, granted: Step) -> None:
        if self.held:
            self.waiters.append(granted)
        else:
            self.held = True
            self.env.call_in(0.0, granted)

    def release(self) -> None:
        if self.waiters:
            self.env.call_in(0.0, self.waiters.popleft())
        else:
            self.held = False


class PortNetwork:
    """Fat-tree data network with per-node injection/ejection ports."""

    def __init__(self, env: Environment, n: int, spec: "MachineSpec"):
        from repro.sim.topology import make_topology

        self.env = env
        self.n = n
        self.spec = spec
        self.inject = [_Port(env) for _ in range(n)]
        self.eject = [_Port(env) for _ in range(n)]
        self.stats = PortNetworkStats()
        self._topology = make_topology(spec.topology, n)
        self._inboxes: List[Callable[[WireMessage], None]] = []

    def attach(self, inboxes: List[Callable[[WireMessage], None]]) -> None:
        if len(inboxes) != self.n:
            raise ValueError(f"{len(inboxes)} inboxes for {self.n} nodes")
        self._inboxes = inboxes

    def hops(self, src: int, dst: int) -> int:
        """Path length through the configured data-network topology.

        (For the CM-5's 4-ary fat tree this is twice the height of the
        lowest common ancestor; other topologies come from
        :mod:`repro.sim.topology`.)
        """
        return self._topology.hops(src, dst)

    def send(self, msg: WireMessage, then: Step) -> None:
        """Inject ``msg``, then call ``then(None)``.

        The sender is busy for ``msg_startup`` plus any wait for its
        injection port plus the injection occupancy itself; ``then``
        always runs from a later callback, never inside this call.
        """
        if not self._inboxes:
            raise RuntimeError("network not attached to nodes")
        if msg.src == msg.dst:
            raise ValueError(f"message to self: {msg.kind} at node {msg.src}")
        env = self.env
        spec = self.spec
        occupancy = (msg.nbytes + spec.header_nbytes) * spec.byte_time

        self.stats.messages += 1
        self.stats.bytes += msg.nbytes

        def inject(_arg: None) -> None:
            self._hold(self.inject[msg.src], occupancy, injected)

        def injected(_arg: None) -> None:
            env.call_first(wire)
            then(None)

        def wire(_arg: None) -> None:
            lat = self.hops(msg.src, msg.dst) * spec.hop_time
            if lat:
                env.call_in(lat, eject)
            else:
                eject(None)

        def eject(_arg: None) -> None:
            self._hold(self.eject[msg.dst], occupancy, delivered)

        def delivered(_arg: None) -> None:
            self._inboxes[msg.dst](msg)

        if spec.msg_startup:
            env.call_in(spec.msg_startup, inject)
        else:
            inject(None)

    def _hold(self, port: _Port, occupancy: float, then: Step) -> None:
        """Claim ``port``, occupy it for ``occupancy``, release it, then ``then``."""

        def granted(_arg: None) -> None:
            if occupancy:
                self.env.call_in(occupancy, release)
            else:
                release(None)

        def release(_arg: None) -> None:
            port.release()
            then(None)

        port.claim(granted)
