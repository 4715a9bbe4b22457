"""The process-wide memo of prepared traces, keyed by trace digest.

Sweep workers and serve misses take their :class:`PreparedTrace` from
:data:`PREPARED`, so a trace is translated, split and clustered once per
process however many machine points it is extrapolated to.  The key is
the content digest, so an entry answers only for byte-identical traces;
it changes how often work is done, never the bytes it produces.

The memo is a least-recently-used map bounded by *events held* (each
entry's trace plus the representative sub-traces of its built sampling
plans), not by entry count: one large trace weighs what many small ones
do.  An entry larger than the whole bound is handed back but not kept.
Every process has its own memo; a forked worker starts from a copy of
its parent's.

A trace's events are fixed once it is built and its digest follows
any meta edit, so ``trace.digest()`` is the only key there is: nothing
is passed beside the trace that could disagree with it.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Optional

from repro.core.pipeline import PreparedTrace
from repro.trace.trace import Trace

#: default bound on events held across all entries.  Held events cost
#: roughly 300-400 bytes each with their translation, so a full memo is
#: on the order of 200 MB.
MAX_EVENTS = 500_000


class PreparedMemo:
    """Digest -> :class:`PreparedTrace`, LRU, bounded by events held."""

    def __init__(self, max_events: int = MAX_EVENTS):
        self.max_events = max_events
        self._entries: "OrderedDict[str, PreparedTrace]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, digest: str) -> Optional[PreparedTrace]:
        """The entry for ``digest`` (now most recently used), or None."""
        with self._lock:
            prepared = self._entries.get(digest)
            if prepared is not None:
                self._entries.move_to_end(digest)
            return prepared

    def prepare(self, trace: Trace) -> PreparedTrace:
        """The entry for ``trace.digest()``, prepared from ``trace`` on a miss."""
        digest = trace.digest()
        prepared = self.get(digest)
        if prepared is None:
            fresh = PreparedTrace(trace)
            fresh.on_grow = self._shrink
            with self._lock:
                prepared = self._entries.setdefault(digest, fresh)
                self._entries.move_to_end(digest)
            self._shrink()
        return prepared

    @property
    def events_held(self) -> int:
        with self._lock:
            return sum(p.events_held for p in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def _shrink(self) -> None:
        """Drop least recently used entries until the bound holds."""
        with self._lock:
            held = sum(p.events_held for p in self._entries.values())
            while held > self.max_events and self._entries:
                _, evicted = self._entries.popitem(last=False)
                held -= evicted.events_held

    def _after_fork(self) -> None:
        # A lock another thread held at fork time stays held forever in
        # the child; the child's copy starts with a fresh one.
        self._lock = threading.Lock()


#: the memo every sweep worker and serve miss shares within a process
PREPARED = PreparedMemo()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=PREPARED._after_fork)
