"""The ExtraP trace-driven simulator (paper §3.3).

Replays translated per-thread traces through a discrete-event simulation
of the target environment, composed of three models:

* **processor model** (:mod:`repro.sim.processor`) — compute-time scaling
  by ``MipsRatio`` plus the remote-request service policy (no-interrupt,
  interrupt, poll);
* **remote data access model** (:mod:`repro.sim.network`) — request/reply
  messages with start-up, per-byte, per-hop and analytical contention
  costs over a configurable topology (:mod:`repro.sim.topology`);
* **barrier model** (:mod:`repro.sim.barrier`) — linear master–slave
  (Table 1), logarithmic tree, or hardware barrier.

Entry point: :class:`repro.sim.simulator.Simulator` or the convenience
:func:`repro.sim.simulator.simulate`.
"""

from repro.sim.actions import Action, ActionKind, actions_from_thread_trace
from repro.sim.messages import Message, MsgKind
from repro.sim.network import Network
from repro.sim.result import ProcessorStats, SimulationResult
from repro.sim.simulator import Simulator, assign_threads, simulate
from repro.sim.topology import Topology, make_topology

__all__ = [
    "Action",
    "ActionKind",
    "Message",
    "MsgKind",
    "Network",
    "ProcessorStats",
    "SimulationResult",
    "Simulator",
    "Topology",
    "actions_from_thread_trace",
    "assign_threads",
    "make_topology",
    "simulate",
]
