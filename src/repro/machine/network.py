"""Port-based fat-tree network for the reference machine.

More detailed than the extrapolation simulator's analytical contention:
every message individually occupies its source node's injection port and
its destination node's ejection port for ``bytes * byte_time`` each, so
endpoint contention (the dominant effect on a CM-5-class fat tree, which
preserves bisection bandwidth) is *simulated*, message by message, with
FIFO queueing on the :class:`~repro.des.resources.Resource` ports.

``send`` is a generator: the caller is busy for the software start-up
and until its injection port accepts the message; the rest of the
transfer (switch hops, ejection, delivery) proceeds asynchronously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from repro.des import Environment, Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.spec import MachineSpec
    from repro.pcxx.collection import Collection, Index


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
    max_inject_queue: int = 0
    max_eject_queue: int = 0


class PortNetwork:
    """Fat-tree data network with per-node injection/ejection ports."""

    def __init__(self, env: Environment, n: int, spec: "MachineSpec"):
        from repro.sim.topology import make_topology

        self.env = env
        self.n = n
        self.spec = spec
        self.inject = [Resource(env) for _ in range(n)]
        self.eject = [Resource(env) for _ in range(n)]
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

    def send(self, msg: WireMessage) -> Generator:
        """Inject ``msg``; the generator returns once injection finishes.

        The caller is busy for ``msg_startup`` plus any wait for its
        injection port plus the injection occupancy itself; the switch
        traversal and ejection happen in a detached delivery process.
        """
        if not self._inboxes:
            raise RuntimeError("network not attached to nodes")
        if msg.src == msg.dst:
            raise ValueError(f"message to self: {msg.kind} at node {msg.src}")
        spec = self.spec
        wire_bytes = msg.nbytes + spec.header_nbytes
        occupancy = wire_bytes * spec.byte_time

        self.stats.messages += 1
        self.stats.bytes += msg.nbytes

        if spec.msg_startup:
            yield self.env.timeout(spec.msg_startup)
        req = self.inject[msg.src].request()
        self.stats.max_inject_queue = max(
            self.stats.max_inject_queue, self.inject[msg.src].queue_length
        )
        yield req
        if occupancy:
            yield self.env.timeout(occupancy)
        self.inject[msg.src].release(req)
        self.env.process(self._deliver(msg, occupancy), name=f"wire{msg.msg_id}")

    def _deliver(self, msg: WireMessage, occupancy: float) -> Generator:
        """Switch traversal + ejection-port occupancy + delivery."""
        lat = self.hops(msg.src, msg.dst) * self.spec.hop_time
        if lat:
            yield self.env.timeout(lat)
        req = self.eject[msg.dst].request()
        self.stats.max_eject_queue = max(
            self.stats.max_eject_queue, self.eject[msg.dst].queue_length
        )
        yield req
        if occupancy:
            yield self.env.timeout(occupancy)
        self.eject[msg.dst].release(req)
        self._inboxes[msg.dst](msg)
