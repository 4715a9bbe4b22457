"""The remote data access / interconnect model (§3.3.2).

Message cost structure:

* the *sender* is busy for ``msg_build_time`` (processor model) plus
  ``CommStartupTime`` (charged by the caller — see
  :meth:`repro.sim.processor.SimProcessor._send`);
* the message then travels for::

      wire = (nbytes + header) * ByteTransferTime * mult
             + hops(src, dst) * hop_time

  and is appended to the destination's receive queue (whose serial
  draining *is* the receive-queue contention the paper simulates
  directly).

The contention multiplier ``mult`` is the paper's analytical contention
model: "analytical expressions of remote access delay involving the
contention factors calculated from the simulation state".  We use::

      1 + contention_factor * others_in_flight / bisection_width

where ``others_in_flight`` is the number of messages already in transit
at injection time and ``bisection_width`` comes from the topology.  A bus
(bisection 1) therefore degrades steeply under load while a fat tree
(bisection n/2) barely notices — the qualitative behaviour the model
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List

from repro.core.parameters import NetworkParams
from repro.des import Environment
from repro.sim.messages import Message
from repro.sim.topology import Topology, make_topology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.processor import SimProcessor


@dataclass
class NetworkStats:
    """Aggregate interconnect statistics for one simulation.

    ``dropped`` / ``duplicated`` / ``total_jitter`` are only ever
    non-zero when a fault plan is attached (see :mod:`repro.faults`).
    """

    messages: int = 0
    bytes: int = 0
    total_wire_time: float = 0.0
    total_contention_delay: float = 0.0
    max_in_flight: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    dropped: int = 0
    duplicated: int = 0
    total_jitter: float = 0.0


class Network:
    """Delivers messages between processors with modelled delays.

    ``placement`` maps logical processor ids (which the traces and
    simulator use) to *physical* positions in the topology — the
    "processor mapping" extrapolation axis of §2.  Hop counts use
    physical positions; everything else stays logical.  Identity by
    default.
    """

    def __init__(
        self,
        env: Environment,
        n: int,
        params: NetworkParams,
        *,
        placement: List[int] | None = None,
    ):
        self.env = env
        self.n = n
        self.params = params
        self.topology: Topology = make_topology(params.topology, n)
        if placement is None:
            placement = list(range(n))
        if sorted(placement) != list(range(n)):
            raise ValueError(
                f"placement must be a permutation of 0..{n - 1}, got {placement}"
            )
        self.placement = list(placement)
        self._bisection = self.topology.bisection
        #: ``src * n + dst -> hops * hop_time``, filled on first use
        self._routes: Dict[int, float] = {}
        self._in_flight = 0
        self.stats = NetworkStats()
        #: timeline recorder, or None when observation is off; sampled on
        #: state change (inject/deliver), never on a clock
        self._obs = env.obs
        #: fault injector, or None for an ideal (paper) interconnect
        self._faults = env.faults
        #: delivery targets, filled by the simulator once processors exist
        self._inboxes: List[Callable[[Message], None]] = []
        # Per-run constants, read once per message: bound here.
        self._header = params.header_nbytes
        self._byte_time = params.byte_transfer_time
        self._contention = params.contention
        self._contention_factor = params.contention_factor
        self._call_in = env.call_in
        #: the arrival step, bound once; a reference cycle until detach()
        self._k_deliver = self._deliver

    def attach(self, inboxes: List[Callable[[Message], None]]) -> None:
        """Register one delivery callback per processor."""
        if len(inboxes) != self.n:
            raise ValueError(f"{len(inboxes)} inboxes for {self.n} processors")
        self._inboxes = inboxes

    def detach(self) -> None:
        """Drop the delivery callbacks once the run is over (each holds
        its processor, which holds this network) and the bound arrival
        step."""
        self._inboxes = []
        self._k_deliver = None

    # -- cost model ------------------------------------------------------------

    def _route_time(self, src: int, dst: int) -> float:
        """Fixed per-route transit term ``hops(src, dst) * hop_time``."""
        key = src * self.n + dst
        cost = self._routes.get(key)
        if cost is None:
            hops = self.topology.hops(self.placement[src], self.placement[dst])
            cost = self._routes[key] = hops * self.params.hop_time
        return cost

    def wire_time(self, msg: Message) -> float:
        """Transit time for ``msg`` injected *now* (excludes startup)."""
        base = (msg.nbytes + self._header) * self._byte_time
        route = self._routes.get(msg.src * self.n + msg.dst)
        if route is None:
            route = self._route_time(msg.src, msg.dst)
        if not self._contention:
            return base + route
        # The analytical contention multiplier (module docstring).
        mult = 1.0 + self._contention_factor * self._in_flight / self._bisection
        self.stats.total_contention_delay += base * (mult - 1.0)
        return base * mult + route

    # -- delivery ----------------------------------------------------------------

    def send(self, msg: Message) -> float:
        """Inject ``msg``; returns its transit time.

        The message is delivered to the destination inbox after the
        transit delay.  The *sender-side* startup cost is charged by the
        sending processor before calling send (it is busy time, not
        transit time).
        """
        if not self._inboxes:
            raise RuntimeError("network not attached to processors yet")
        if msg.src == msg.dst:
            raise ValueError(f"message to self: {msg!r}")
        now = self.env._now
        stats = self.stats
        kind = msg.kind._value_  # .value is a Python-level descriptor
        transit = self.wire_time(msg)

        dropped = duplicated = False
        if self._faults is not None:
            dropped, duplicated, extra = self._faults.message_fate(kind)
            if extra > 0.0:
                transit += extra
                stats.total_jitter += extra

        stats.messages += 1
        stats.bytes += msg.nbytes
        by_kind = stats.by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1

        if dropped:
            # The message vanishes in transit: it never reaches the
            # destination's receive queue and stops loading the wire.
            stats.dropped += 1
            if self._obs is not None:
                self._obs.instant(
                    msg.src,
                    "fault.msg_drop",
                    now,
                    kind=kind,
                    dst=msg.dst,
                    msg_id=msg.msg_id,
                )
                self._obs.counter("net.dropped", now, stats.dropped)
            return transit

        self._in_flight += 1
        stats.total_wire_time += transit
        if self._in_flight > stats.max_in_flight:
            stats.max_in_flight = self._in_flight
        if self._obs is not None:
            self._obs.counter("net.in_flight", now, self._in_flight)
            self._obs.counter("net.bytes_total", now, stats.bytes)

        self._call_in(transit, self._k_deliver, msg)

        if duplicated:
            # A second copy arrives after an independently priced
            # transit (the network state may have changed meanwhile).
            stats.duplicated += 1
            dup_transit = self.wire_time(msg)
            self._in_flight += 1
            if self._in_flight > stats.max_in_flight:
                stats.max_in_flight = self._in_flight
            self._call_in(dup_transit, self._k_deliver, msg)
            if self._obs is not None:
                self._obs.instant(
                    msg.src,
                    "fault.msg_dup",
                    now,
                    kind=kind,
                    dst=msg.dst,
                    msg_id=msg.msg_id,
                )
        return transit

    def _deliver(self, msg: Message) -> None:
        self._in_flight -= 1
        if self._obs is not None:
            self._obs.counter("net.in_flight", self.env.now, self._in_flight)
        self._inboxes[msg.dst](msg)
