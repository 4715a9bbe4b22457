"""Message queues for the DES engine.

:class:`Store` is an unbounded (or capacity-bounded) FIFO of items with
event-returning ``put``/``get``; it is the building block for processor
receive queues in both simulators (which deliver with the event-free
``put_nowait``).  :class:`PriorityStore` dequeues the
smallest item first; :class:`FilterStore` lets getters select items by
predicate (used for reply matching).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List

from repro.des.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


class StorePut(Event):
    """Put request; fires when the item has been accepted."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Get request; fires with the retrieved item as value."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        # One per receive; set the slots directly, as Timeout does.
        self.env = store.env
        self._state = PENDING
        self._value = None
        self._ok = True
        self.callbacks = []
        self.defused = False


class FilterStoreGet(StoreGet):
    """Get request with a predicate selecting acceptable items."""

    __slots__ = ("predicate",)

    def __init__(self, store: "Store", predicate: Callable[[Any], bool]):
        super().__init__(store)
        self.predicate = predicate


class Store:
    """FIFO item store with optional capacity.

    ``put`` returns an event that fires once the item is stored (instantly
    unless the store is full); ``get`` returns an event that fires with an
    item once one is available.  Waiters are served in FIFO order.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: List[Any] = []
        self._put_waiters: List[StorePut] = []
        self._get_waiters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    @property
    def pending_gets(self) -> int:
        """Number of getters currently blocked."""
        return len(self._get_waiters)

    def put(self, item: Any) -> StorePut:
        """Request to add ``item``; returns the completion event."""
        ev = StorePut(self, item)
        # Fast path: no queued puts ahead and room available — accept
        # directly; a full dispatch only runs when getters are blocked.
        if not self._put_waiters and len(self.items) < self.capacity:
            self._accept(item)
            ev.succeed()
            if self._get_waiters:
                self._dispatch()
        else:
            self._put_waiters.append(ev)
            self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Add ``item`` at once, creating no put event.

        For producers nobody waits on, such as a network delivering into
        a receive queue: a waiting getter is served exactly as
        :meth:`put` would serve it, minus the put event's queue slot.
        Raises ``RuntimeError`` when the item cannot be accepted now.
        """
        if self._put_waiters or len(self.items) >= self.capacity:
            raise RuntimeError(f"store is full (capacity {self.capacity})")
        self._accept(item)
        if self._get_waiters:
            self._dispatch()

    def get(self) -> StoreGet:
        """Request to remove the oldest item; returns the retrieval event."""
        ev = StoreGet(self)
        # Fast path: no getters queued ahead and an item is available.
        if not self._get_waiters and self.items:
            item = self._extract(ev)
            if item is not self._NOTHING:
                ev.succeed(item)
                # Taking an item may free capacity for queued puts.
                if self._put_waiters:
                    self._dispatch()
                return ev
        self._get_waiters.append(ev)
        if self.items or self._put_waiters:
            self._dispatch()
        return ev

    def cancel(self, get_ev: StoreGet) -> None:
        """Withdraw a get request that has not been served yet.

        Needed by waiters that race a get against another event (e.g. a
        compute timeout vs. message arrival): the loser must be cancelled
        or it would silently steal a later item.  No-op if already served.
        """
        try:
            self._get_waiters.remove(get_ev)
        except ValueError:
            pass

    # -- internals ----------------------------------------------------------

    #: sentinel distinguishing "no suitable item" from a stored None
    _NOTHING = object()

    def _accept(self, item: Any) -> None:
        self.items.append(item)

    def _extract(self, get_ev: StoreGet) -> Any:
        """Pick the item for ``get_ev``; _NOTHING means nothing suitable."""
        return self.items.pop(0) if self.items else self._NOTHING

    def _dispatch(self) -> None:
        while True:
            # Admit queued puts while there is room.
            while self._put_waiters and len(self.items) < self.capacity:
                put_ev = self._put_waiters.pop(0)
                self._accept(put_ev.item)
                put_ev.succeed()
            # Serve getters (FIFO; FilterStore may skip non-matching ones).
            served = False
            i = 0
            while i < len(self._get_waiters) and self.items:
                get_ev = self._get_waiters[i]
                item = self._extract(get_ev)
                if item is self._NOTHING:
                    i += 1
                    continue
                self._get_waiters.pop(i)
                get_ev.succeed(item)
                served = True
            # Serving a get can free capacity for a queued put; loop only
            # when that can actually unblock something.
            if not (served and self._put_waiters):
                return


class FilterStore(Store):
    """Store whose getters select items with a predicate."""

    def get(self, predicate: Callable[[Any], bool] | None = None) -> StoreGet:
        ev = FilterStoreGet(self, predicate or (lambda item: True))
        self._get_waiters.append(ev)
        self._dispatch()
        return ev

    def _extract(self, get_ev: StoreGet) -> Any:
        pred = getattr(get_ev, "predicate", lambda item: True)
        for idx, item in enumerate(self.items):
            if pred(item):
                return self.items.pop(idx)
        return self._NOTHING


@dataclass(order=True)
class PriorityItem:
    """Wrapper giving any payload an orderable priority."""

    priority: float
    item: Any = field(compare=False)


class PriorityStore(Store):
    """Store that always yields the smallest item first.

    Items must be mutually orderable; wrap payloads in
    :class:`PriorityItem` when they are not.
    """

    def _accept(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _extract(self, get_ev: StoreGet) -> Any:
        return heapq.heappop(self.items) if self.items else self._NOTHING
