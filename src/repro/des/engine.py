"""The simulation environment: clock + event queue + run loop.

Every queue entry is a call, ``(time, priority, seq, fn, arg)``:
:meth:`Environment.call_at` / :meth:`Environment.call_in` queue one at
priority 0 and :meth:`Environment.call_first` at -1.  An
:class:`~repro.des.events.Event` that succeeds, or a
:class:`~repro.des.events.Timeout`, queues its own processing the same
way (``fn`` is ``Event._process``, ``arg`` the event), so a wake-up
whose only waiter is one step needs no event object.  One loop,
:meth:`Environment._drain`, makes the calls for
:meth:`Environment.run` until the queue is empty, in exactly the order
repeated :meth:`Environment.step` calls would; ``step()`` stays the
readable one-entry reference path.  Profiling
(:meth:`Environment.enable_profiling`) attaches an
:class:`~repro.perf.counters.EngineCounters` block that the loop fills
in; with profiling off it costs one ``is None`` test per entry.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.des.events import Timeout
from repro.perf.counters import EngineCounters


class StopSimulation(Exception):
    """Raised by :meth:`Environment.step` when the queue is empty."""


class SimulationStalled(RuntimeError):
    """The simulation stopped making progress (watchdog diagnosis).

    Raised instead of hanging when a run cannot complete — e.g. a
    fault plan dropped a message nobody retransmits, or the wall-clock
    budget ran out.  The message is a one-line diagnosis; ``blocked``
    carries ``(pid, reason)`` pairs for the processes that never
    finished and ``pending_barriers`` the barrier episodes still
    waiting on arrivals, so callers can render richer reports.
    """

    def __init__(
        self,
        message: str,
        *,
        blocked: Sequence[Tuple[int, str]] = (),
        pending_barriers: Sequence[Tuple[int, str]] = (),
    ):
        super().__init__(message)
        self.blocked = tuple(blocked)
        self.pending_barriers = tuple(pending_barriers)


class Watchdog:
    """Wall-clock budget + no-progress stall detection for run loops.

    The driving loop calls :meth:`check` every ``check_interval``
    processed events with an opaque *progress token* (any value that
    changes whenever the simulation did real work — the simulator uses
    ``(processors finished, actions completed)``).  If the token stops
    changing for ``stall_event_window`` events while events keep
    flowing, or the optional wall-clock budget is exhausted, ``check``
    returns a one-line reason string; the caller turns it into a
    :class:`SimulationStalled` with whatever model-level diagnosis it
    can add.  Healthy runs pay one comparison per interval.
    """

    def __init__(
        self,
        *,
        wall_clock_budget: Optional[float] = None,
        stall_event_window: int = 2_000_000,
        check_interval: int = 250_000,
    ):
        if wall_clock_budget is not None and wall_clock_budget <= 0:
            raise ValueError(
                f"wall_clock_budget must be > 0, got {wall_clock_budget}"
            )
        if stall_event_window <= 0 or check_interval <= 0:
            raise ValueError("watchdog windows must be > 0")
        self.wall_clock_budget = wall_clock_budget
        self.stall_event_window = stall_event_window
        self.check_interval = check_interval
        self._started = time.monotonic()
        self._last_progress: Any = None
        self._events_at_progress = 0

    def check(self, event_count: int, progress: Any) -> Optional[str]:
        """Return a stall reason, or None while the run looks healthy."""
        if progress != self._last_progress:
            self._last_progress = progress
            self._events_at_progress = event_count
        elif event_count - self._events_at_progress >= self.stall_event_window:
            return (
                f"no forward progress in the last "
                f"{event_count - self._events_at_progress} events "
                "(messages may be circulating without completing any work)"
            )
        if self.wall_clock_budget is not None:
            elapsed = time.monotonic() - self._started
            if elapsed > self.wall_clock_budget:
                return (
                    f"wall-clock budget of {self.wall_clock_budget:g}s "
                    f"exceeded ({elapsed:.1f}s elapsed, "
                    f"{event_count} events processed)"
                )
        return None


class Environment:
    """Discrete-event simulation environment.

    Time is a float in whatever unit the caller chooses; the rest of this
    library uses microseconds (see :mod:`repro.util.units`).

    Entries scheduled for the same time fire by an integer ``priority``
    (lower first), then in FIFO order of scheduling.  Every entry has
    priority 0 except a :meth:`call_first` call (-1), so a freshly
    started model component takes its first step before same-time
    ordinary entries.  Models are callback-driven: the step after each
    wait is the queued call itself when it is the only waiter
    (:meth:`call_at`, :meth:`call_in`, :meth:`call_first`), or a
    callback appended to the awaited event, whose processing is one
    more queued call.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        #: ``(time, priority, seq, fn, arg)`` entries, popped in
        #: ``(time, priority, seq)`` order
        self._queue: List[tuple] = []
        self._seq = 0
        self._event_count = 0
        self._profile: Optional[EngineCounters] = None
        #: Observability hook slot (see :mod:`repro.obs`).  A simulator
        #: that wants a recorded timeline attaches its
        #: :class:`~repro.obs.recorder.TimelineRecorder` here *before*
        #: building its model components; each component captures the
        #: slot at construction and guards every hook call with a single
        #: ``is None`` test.  The engine itself never touches it, so the
        #: event loop pays nothing for the feature.
        self.obs: Optional[Any] = None
        #: Fault-injection hook slot (see :mod:`repro.faults`), wired
        #: exactly like ``obs``: the simulator attaches a
        #: :class:`~repro.faults.injector.FaultInjector` here *before*
        #: building its model components; each component captures the
        #: slot at construction.  ``None`` (the default, and always for
        #: a null fault plan) keeps every code path byte-identical to a
        #: fault-free build.
        self.faults: Optional[Any] = None

    # -- introspection ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_event_count(self) -> int:
        """Queue entries (calls, event processing included) processed so far."""
        return self._event_count

    @property
    def profile(self) -> Optional[EngineCounters]:
        """The counter block, or None while profiling is off."""
        return self._profile

    def enable_profiling(self) -> EngineCounters:
        """Attach (or return the already-attached) engine counters.

        While enabled, processed entries are histogrammed by kind and the
        queue peak is tracked, which slows the run loop down.
        """
        if self._profile is None:
            self._profile = EngineCounters()
        return self._profile

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else inf

    def drop_queue(self) -> None:
        """Forget every queued call, for a run that is over.

        A run that stopped early (a budget ran out, a model error
        raised) leaves calls that refer back to its model components,
        which hold this environment: dropping them breaks that
        reference cycle."""
        self._queue.clear()

    # -- factories ------------------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` after the current time."""
        return Timeout(self, delay, value)

    def call_at(self, when: float, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Call ``fn(arg)`` at the absolute time ``when``, as one queue entry.

        The queue entry is keyed by exactly ``when``: a caller that sums
        a chain of delays itself gets the float that one timeout per
        step would reach, where ``now + (when - now)`` may round
        differently.  Like :meth:`call_in`, it takes a sequence number
        and no event object: use it for a wake-up whose only waiter is
        ``fn``.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule into the past (at {when}, now {self._now})"
            )
        self._seq += 1
        queue = self._queue
        heappush(queue, (when, 0, self._seq, fn, arg))
        if self._profile is not None:
            self._profile.pushed(len(queue))

    def call_in(self, delay: float, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Call ``fn(arg)`` ``delay`` after the current time: the queue
        entry of ``timeout(delay)`` with ``fn`` as its one callback."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        queue = self._queue
        heappush(queue, (self._now + delay, 0, self._seq, fn, arg))
        if self._profile is not None:
            self._profile.pushed(len(queue))

    def call_first(self, fn: Callable[[Any], Any], arg: Any = None) -> None:
        """Call ``fn(arg)`` at the current time, ahead of every same-time
        entry of priority 0 (this entry takes priority -1): how a model
        component (a processor, a machine node, a wire leg) starts."""
        self._seq += 1
        queue = self._queue
        heappush(queue, (self._now, -1, self._seq, fn, arg))
        if self._profile is not None:
            self._profile.pushed(len(queue))

    # -- run loop -------------------------------------------------------------

    def step(self) -> None:
        """Process exactly one queue entry (advancing the clock to it):
        make its call.

        This is the reference path; bulk draining goes through
        :meth:`_drain`, which behaves exactly like repeated ``step()``
        calls.
        """
        if not self._queue:
            raise StopSimulation("event queue is empty")
        t, _priority, _seq, fn, arg = heappop(self._queue)
        self._now = t
        self._event_count += 1
        if self._profile is not None:
            self._profile.count(fn, arg)
        fn(arg)

    def _drain(self, budget: int) -> bool:
        """The dispatch loop: :meth:`step` order, dispatch inlined.

        Stops when the queue is empty (``True``) or after ``budget``
        entries (``False``; ``-1`` is unlimited).
        """
        queue = self._queue
        pop = heappop
        profile = self._profile
        count = 0
        try:
            while queue:
                # One pop per entry: heappop returns the least (time,
                # priority, seq), entries a call pushes included, so this
                # is the order repeated step() calls make.
                self._now, _priority, _seq, fn, arg = pop(queue)
                count += 1
                if profile is not None:
                    profile.count(fn, arg)
                fn(arg)
                if count == budget:
                    return False
        finally:
            self._event_count += count
        return True

    def run(self, *, max_events: int | None = None) -> bool:
        """Make the queued calls until the queue is empty, at most
        ``max_events`` of them.

        Returns ``True`` when the queue is empty, ``False`` when the
        ``max_events`` budget ran out first.
        """
        if max_events == 0:
            return not self._queue
        return self._drain(-1 if max_events is None else max_events)
