"""Simulation messages.

The paper models every inter-processor interaction — remote element
requests, replies, and (when ``BarrierByMsgs`` is set) barrier arrivals
and releases — as messages, "the natural representation for the remote
access protocol in the simulation" (§3.3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MsgKind(enum.Enum):
    #: Remote element request: ``nbytes`` is the reply payload size.
    REQUEST = "request"
    #: Remote element reply carrying the data.
    REPLY = "reply"
    #: Remote element write (carries the data; acknowledged).
    WRITE = "write"
    #: Write acknowledgement.
    WRITE_ACK = "write_ack"
    #: Barrier arrival notification (slave -> master, or tree child -> parent).
    BARRIER_ARRIVE = "barrier_arrive"
    #: Barrier release notification (master -> slave / parent -> child).
    BARRIER_RELEASE = "barrier_release"


@dataclass(slots=True)
class Message:
    """One message on the simulated interconnect.

    Slotted: the replay builds one per request, reply, write, ack and
    barrier message, so a message has no ``__dict__`` and takes no
    attribute beyond the fields below.

    Attributes
    ----------
    kind:
        Message type.
    src, dst:
        Source and destination processor ids.
    nbytes:
        Payload size on the wire (headers are added by the network model).
    msg_id:
        Correlates requests with replies (and writes with acks).
    barrier_id:
        Barrier episode for BARRIER_* messages.
    reply_nbytes:
        For REQUEST: how large the reply payload will be.
    attempt:
        Retransmission number under the fault-recovery protocol
        (0 = first transmission; see :mod:`repro.faults`).
    """

    kind: MsgKind
    src: int
    dst: int
    nbytes: int = 0
    msg_id: int = -1
    barrier_id: int = -1
    reply_nbytes: int = 0
    attempt: int = 0

    def __repr__(self) -> str:
        extra = f" b={self.barrier_id}" if self.barrier_id >= 0 else ""
        if self.attempt:
            extra += f" retry={self.attempt}"
        return (
            f"<Msg {self.kind.value} {self.src}->{self.dst} "
            f"{self.nbytes}B id={self.msg_id}{extra}>"
        )
