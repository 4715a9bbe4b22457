"""Message queues for the DES engine.

:class:`Store` is an unbounded FIFO of items: ``put_nowait`` stores an
item at once; ``get`` returns an event that fires with the oldest item,
and ``get_then(fn)`` queues the call ``fn(item)`` instead.  It is the
receive queue of the replay's processors and of the reference
machine's nodes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Union

from repro.des.events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


class StoreGet(Event):
    """Get request; fires with the retrieved item as value."""

    __slots__ = ()

    def __init__(self, store: "Store"):
        # One per receive; set the slots directly, as Timeout does.
        self.env = store.env
        self._state = PENDING
        self._value = None
        self.callbacks = []


class Store:
    """Unbounded FIFO item store.

    ``put_nowait`` stores an item at once; ``get`` returns an event that
    fires with the oldest item once one is available, and
    ``get_then(fn)`` calls ``fn(item)`` then.  Getters of both kinds are
    served in FIFO order, each through one queue entry taken when it is
    served, so ``items`` and the blocked getters are never both
    non-empty.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.items: List[Any] = []
        self._get_waiters: List[Union[StoreGet, Callable[[Any], Any]]] = []

    def __len__(self) -> int:
        return len(self.items)

    def put_nowait(self, item: Any) -> None:
        """Add ``item`` at once; the oldest waiting getter, if any, is
        served it through the queue.  No put event is created."""
        if self._get_waiters:
            waiter = self._get_waiters.pop(0)
            if type(waiter) is StoreGet:
                waiter.succeed(item)
            else:
                self.env.call_in(0.0, waiter, item)
        else:
            self.items.append(item)

    def get(self) -> StoreGet:
        """Request to remove the oldest item; returns the retrieval event."""
        ev = StoreGet(self)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._get_waiters.append(ev)
        return ev

    def get_then(self, fn: Callable[[Any], Any]) -> None:
        """Remove the oldest item and call ``fn(item)``, through the
        queue entry a :meth:`get` event with ``fn`` as its one callback
        would take.  Such a getter cannot be cancelled."""
        if self.items:
            self.env.call_in(0.0, fn, self.items.pop(0))
        else:
            self._get_waiters.append(fn)

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
