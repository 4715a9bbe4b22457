"""A small SimPy-style discrete-event simulation (DES) engine.

This is the substrate underneath both the ExtraP trace-driven simulator
(:mod:`repro.sim`) and the reference target-machine simulator
(:mod:`repro.machine`).  It provides:

* :class:`Environment` — the simulation clock and event loop;
* generator-based :class:`Process`\\ es that ``yield`` events to wait on;
* :class:`Event` / :class:`Timeout` / :class:`AnyOf` / :class:`AllOf` /
  :class:`FirstOf` synchronisation primitives;
* :class:`Interrupt` delivery into waiting processes (used by the
  *interrupt* remote-access service policy);
* :class:`Store` / :class:`PriorityStore` message queues and a counted
  :class:`Resource` (used for link and queue contention).

The engine is deterministic: simultaneous events fire in FIFO order of
scheduling (stable tie-break on a monotone sequence number).
"""

from repro.des.events import AllOf, AnyOf, Event, FirstOf, Interrupt, Timeout
from repro.des.engine import (
    Deadlock,
    Environment,
    SimulationStalled,
    StopSimulation,
    Watchdog,
)
from repro.des.process import Process, ProcessKilled
from repro.des.stores import FilterStore, PriorityItem, PriorityStore, Store
from repro.des.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Deadlock",
    "Environment",
    "Event",
    "FilterStore",
    "FirstOf",
    "Interrupt",
    "PriorityItem",
    "PriorityStore",
    "Process",
    "ProcessKilled",
    "Resource",
    "SimulationStalled",
    "StopSimulation",
    "Store",
    "Timeout",
    "Watchdog",
]
