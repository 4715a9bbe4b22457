"""Machine specifications for the reference simulator."""

from __future__ import annotations

from dataclasses import dataclass

from repro.pcxx.runtime import CM5_MFLOPS


@dataclass(frozen=True)
class MachineSpec:
    """Hardware description of a direct-simulated target machine.

    All times in microseconds.

    Attributes
    ----------
    name:
        Label for reports.
    node_mflops:
        Scalar floating-point rate of one node; ``compute(flops)`` takes
        ``flops / node_mflops``.
    local_access_time:
        Cost of a local collection-element access.
    msg_startup:
        Sender software overhead per message (CMAML-style send).
    byte_time:
        Per-byte port occupancy (both injection and ejection).
    hop_time:
        Per-hop switch latency on the data network.
    topology:
        Data-network topology name (any of
        :func:`repro.sim.topology.available_topologies`); the CM-5 uses
        ``"fattree"`` (always 4-ary).
    service_time:
        Active-message handler time per serviced request.
    header_nbytes:
        Wire header per message.
    request_nbytes:
        Size of a remote-read request message.
    barrier_entry_time / barrier_exit_time:
        Per-node cost entering/leaving the control-network barrier.
    barrier_latency:
        Control-network combine+broadcast latency after the last arrival.
    """

    name: str = "cm5"
    node_mflops: float = CM5_MFLOPS
    local_access_time: float = 0.5
    msg_startup: float = 10.0
    byte_time: float = 0.118
    hop_time: float = 0.2
    topology: str = "fattree"
    service_time: float = 2.0
    header_nbytes: int = 8
    request_nbytes: int = 16
    barrier_entry_time: float = 2.0
    barrier_exit_time: float = 2.0
    barrier_latency: float = 5.0

    def __post_init__(self):
        if self.node_mflops <= 0:
            raise ValueError(f"node_mflops must be positive, got {self.node_mflops}")
        for field_ in (
            "local_access_time",
            "msg_startup",
            "byte_time",
            "hop_time",
            "service_time",
            "barrier_entry_time",
            "barrier_exit_time",
            "barrier_latency",
        ):
            if getattr(self, field_) < 0:
                raise ValueError(f"{field_} must be >= 0")


#: The Thinking Machines CM-5 per Table 3 / Kwan, Totty & Reed: 2.7645
#: scalar MFLOPS nodes, ~10 us message start-up, 8.5 MB/s realised
#: point-to-point bandwidth (0.118 us/byte), 4-ary fat-tree data network,
#: fast hardware barriers on the control network.
CM5_SPEC = MachineSpec()

#: A Paragon-flavoured contrast machine: faster links but a 2-D mesh
#: with per-hop latency, costlier message start-up, and slower software
#: barriers.  Used to show validation against more than one target.
PARAGON_SPEC = MachineSpec(
    name="paragon",
    node_mflops=10.0,
    msg_startup=30.0,
    byte_time=0.02,  # ~50 MB/s endpoint rate
    hop_time=0.4,
    topology="mesh2d",
    service_time=4.0,
    barrier_entry_time=5.0,
    barrier_exit_time=5.0,
    barrier_latency=40.0,  # software combining, no control network
)
