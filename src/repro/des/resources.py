"""A one-slot resource with FIFO queuing.

:class:`Resource` models a facility one process holds at a time (a
network port, a CPU).  Processes ``yield resource.request()``, do their
work, then call ``release(req)``.  The request queue is FIFO, which
keeps contention deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


class Resource:
    """A FIFO lock: one holder at a time, waiters granted in request order."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._holder: Optional[Event] = None
        self._waiters: List[Event] = []

    @property
    def count(self) -> int:
        """1 while the slot is held, else 0."""
        return 0 if self._holder is None else 1

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for the slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Claim the slot; the returned event fires when the claim is granted."""
        req = Event(self.env)
        if self._holder is None:
            self._holder = req
            req.succeed(req)
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Event) -> None:
        """Give the slot back; the oldest waiter, if any, is granted it."""
        if request is not self._holder:
            raise ValueError("releasing a request that does not hold the slot")
        self._holder = self._waiters.pop(0) if self._waiters else None
        if self._holder is not None:
            self._holder.succeed(self._holder)
