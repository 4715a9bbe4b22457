"""A small SimPy-style discrete-event simulation (DES) engine.

This is the substrate underneath the ExtraP trace-driven simulator
(:mod:`repro.sim`) and the reference target-machine simulator
(:mod:`repro.machine`).  It provides only what those two use:

* :class:`Environment` — the simulation clock and a queue of calls
  (``call_at`` / ``call_in``, and ``call_first`` to start a component
  ahead of same-time entries).  ``run`` is the one way to drive it:
  make the calls until the queue is empty, at most ``max_events`` of
  them at a time;
* :class:`Event` / :class:`Timeout` primitives and :class:`FirstOf`
  (the first of several children, e.g. a compute timer against an
  inbox get); an event's processing is one more queued call;
* :class:`Store`, an unbounded FIFO used as a receive queue; a getter
  takes an event (``get``) or a call (``get_then``).

There is one process style: a model's next step is a queue entry's
work.  A wake-up with one waiting step queues the step itself as a
call; an event remains where several steps share a wake-up or one wait
races several (the step is then appended to the event's
``callbacks``).  ``call_first`` starts a model component at the
current time.  There is one stop rule: a run ends when the queue is
empty, and a model that must finish checks its own components then.

Events only succeed: the models need wake-ups delivered in a fixed
order, never a failed event, so there is no failure protocol.  An
exception raised inside a callback propagates out of ``run``.

The engine is deterministic: simultaneous entries fire in FIFO order of
scheduling (stable tie-break on a monotone sequence number).
"""

from repro.des.events import Event, FirstOf, Timeout
from repro.des.engine import (
    Environment,
    SimulationStalled,
    StopSimulation,
    Watchdog,
)
from repro.des.stores import Store

__all__ = [
    "Environment",
    "Event",
    "FirstOf",
    "SimulationStalled",
    "StopSimulation",
    "Store",
    "Timeout",
    "Watchdog",
]
