"""Event primitives for the DES engine.

An :class:`Event` is a one-shot occurrence with a value, for a wake-up
that several steps share or that one wait races against others (a
wake-up with one waiting step is a plain queued call instead).  A model
waits on an event by appending its next step to the event's
``callbacks``; processing the event runs each callback.  Events move
through three states::

    PENDING -> TRIGGERED (its processing queued as a call) -> PROCESSED

Triggering is split from processing so that simultaneous events interleave
deterministically through the central queue rather than recursing through
callback chains: triggering queues ``Event._process(event)`` like any
other call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.des.engine import Environment

#: Event state constants.
PENDING = 0
TRIGGERED = 1
PROCESSED = 2


class Event:
    """A one-shot occurrence that callbacks can wait on.

    Parameters
    ----------
    env:
        Owning environment.
    """

    __slots__ = ("env", "_state", "_value", "callbacks")

    def __init__(self, env: "Environment"):
        self.env = env
        self._state = PENDING
        self._value: Any = None
        self.callbacks: List[Callable[["Event"], None]] = []

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (``succeed`` called)."""
        return self._state >= TRIGGERED

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._state == PROCESSED

    @property
    def value(self) -> Any:
        """The event's payload (valid only after triggering)."""
        if self._state == PENDING:
            raise RuntimeError("event has not been triggered yet")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire at the current time."""
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self._state = TRIGGERED
        self.env.call_in(0.0, Event._process, self)
        return self

    def resolve(self, value: Any = None) -> "Event":
        """Succeed now, without queueing, when nothing waits on the event.

        For an event that only its own waiter triggers: the waiter tests
        ``triggered`` and moves on, so processing the event through the
        queue would run no callback.  The event goes straight to
        PROCESSED, keeping its queue slot (and its sequence number) out
        of the ``(time, priority, seq)`` order; a callback appended after
        that never runs.  With callbacks attached this is
        :meth:`succeed`.
        """
        if self.callbacks:
            return self.succeed(value)
        if self._state != PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self._state = PROCESSED
        return self

    # -- internal ----------------------------------------------------------

    def _process(self) -> None:
        """Run callbacks: the call that triggering queues.  Queued as
        ``Event._process`` itself, so a subclass cannot override it."""
        self._state = PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for cb in callbacks:
                cb(self)

    def _remove_callback(self, cb: Callable[["Event"], None]) -> None:
        try:
            self.callbacks.remove(cb)
        except ValueError:
            pass

    def __repr__(self) -> str:
        state = {PENDING: "pending", TRIGGERED: "triggered", PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        # Set every slot directly instead of chaining through
        # Event.__init__ (which would store _state/_value twice).
        env.call_in(delay, Event._process, self)
        self.env = env
        self.delay = delay
        self._state = TRIGGERED
        self._value = value
        self.callbacks = []

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class FirstOf(Event):
    """Fires, through the queue, with the value of the first child processed.

    The winner is whichever child the environment processes first.  The
    FirstOf is scheduled from that child's callback, so it fires one
    queue hop after it.  The losers' callbacks are removed at that
    point, so a waiter that loops on a long-lived child leaves nothing
    behind on it.  With a single child it is a relay.
    """

    __slots__ = ("children",)

    def __init__(self, env: "Environment", children: tuple):
        self.env = env
        self._state = PENDING
        self._value = None
        self.callbacks = []
        self.children = children
        for ev in children:
            if ev._state == PROCESSED:
                self._on_child(ev)
                return
        on_child = self._on_child
        for ev in children:
            ev.callbacks.append(on_child)

    def drop(self) -> None:
        """Forget the children and waiters of a race that will never be
        decided, for a run that is over: while it is pending, it and
        each child refer to each other."""
        self.children = ()
        self.callbacks = []

    def _on_child(self, ev: Event) -> None:
        if len(self.children) > 1:
            on_child = self._on_child
            for other in self.children:
                if other is not ev:
                    other._remove_callback(on_child)
        self.succeed(ev._value)
