"""A small SimPy-style discrete-event simulation (DES) engine.

This is the substrate underneath the ExtraP trace-driven simulator
(:mod:`repro.sim`) and the reference target-machine simulator
(:mod:`repro.machine`).  It provides only what those two use:

* :class:`Environment` — the simulation clock and event loop;
* generator-based :class:`Process`\\ es that ``yield`` events to wait on;
* :class:`Event` / :class:`Timeout` primitives, :class:`FirstOf` (the
  first of several children, e.g. a compute timer against an inbox
  get) and :class:`AllOf` (the every-processor-done sentinel);
* :class:`Store`, an unbounded FIFO used as a receive queue, and
  :class:`Resource`, a one-slot FIFO lock (a network port).

The engine is deterministic: simultaneous events fire in FIFO order of
scheduling (stable tie-break on a monotone sequence number).
"""

from repro.des.events import AllOf, Event, FirstOf, Timeout
from repro.des.engine import (
    Deadlock,
    Environment,
    SimulationStalled,
    StopSimulation,
    Watchdog,
)
from repro.des.process import Process
from repro.des.stores import Store
from repro.des.resources import Resource

__all__ = [
    "AllOf",
    "Deadlock",
    "Environment",
    "Event",
    "FirstOf",
    "Process",
    "Resource",
    "SimulationStalled",
    "StopSimulation",
    "Store",
    "Timeout",
    "Watchdog",
]
