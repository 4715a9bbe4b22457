"""Trace event kinds and records.

The paper's instrumentation records three interaction types — barrier
entry, barrier exit, and remote element access — because those are the
only points where pC++ threads interact.  We add thread begin/end
delimiters (so per-thread lifetimes are explicit), remote *writes* (the
paper's §5 "trivial extension"), and user phase markers (for richer
metrics; ignored by the simulator's timing models).

A :class:`TraceEvent` is a :class:`typing.NamedTuple`: every measured,
translated and replayed event builds one, up to three times per event
in one prediction, and a tuple is the cheapest immutable record CPython
builds.  It keeps the field names, order, defaults, ``repr`` and hash
of a frozen record, and writing a field raises ``AttributeError``.
Being a tuple, it also compares equal to a plain tuple of its fields
(``TraceEvent(0.0, 1, k) == (0.0, 1, k, -1, -1, 0, "", "")``).
"""

from __future__ import annotations

import enum
from typing import Any, Mapping, NamedTuple


class EventKind(enum.IntEnum):
    """High-level trace event types."""

    #: First event of every thread.
    THREAD_BEGIN = 0
    #: Last event of every thread.
    THREAD_END = 1
    #: Thread arrives at a global barrier.
    BARRIER_ENTER = 2
    #: Thread leaves a global barrier.
    BARRIER_EXIT = 3
    #: Thread reads an element it does not own.
    REMOTE_READ = 4
    #: Thread writes an element it does not own (§5 extension).
    REMOTE_WRITE = 5
    #: User phase marker; carries a label, has no timing-model effect.
    MARK = 6


class TraceEvent(NamedTuple):
    """One high-level event (immutable; equal to the tuple of its fields).

    Attributes
    ----------
    time:
        Timestamp in microseconds (virtual time of the measured run, or
        translated/extrapolated time downstream).
    thread:
        Id of the thread that generated the event.
    kind:
        Event type.
    barrier_id:
        Sequence number of the barrier episode (BARRIER_* only, else -1).
    owner:
        Owning thread of the accessed element (REMOTE_* only, else -1).
    nbytes:
        Payload size of the remote transfer in bytes (REMOTE_* only).
    collection:
        Name of the accessed collection (REMOTE_* only, informational).
    tag:
        Label for MARK events.
    """

    time: float
    thread: int
    kind: EventKind
    barrier_id: int = -1
    owner: int = -1
    nbytes: int = 0
    collection: str = ""
    tag: str = ""

    def to_dict(self) -> Mapping[str, Any]:
        """Compact dict for JSONL serialisation (defaults elided)."""
        d: dict[str, Any] = {"t": self.time, "th": self.thread, "k": int(self.kind)}
        if self.barrier_id != -1:
            d["b"] = self.barrier_id
        if self.owner != -1:
            d["o"] = self.owner
        if self.nbytes:
            d["n"] = self.nbytes
        if self.collection:
            d["c"] = self.collection
        if self.tag:
            d["g"] = self.tag
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict`."""
        kind = _KINDS.get(int(d["k"]))
        if kind is None:
            kind = EventKind(int(d["k"]))  # raises the usual ValueError
        get = d.get
        # tuple.__new__ skips the Python-level __new__ a class call runs.
        return tuple.__new__(
            cls,
            (
                float(d["t"]),
                int(d["th"]),
                kind,
                int(get("b", -1)),
                int(get("o", -1)),
                int(get("n", 0)),
                str(get("c", "")),
                str(get("g", "")),
            ),
        )


#: ``int(kind) -> EventKind``; a dict lookup instead of an enum call per
#: parsed event.
_KINDS = {int(kind): kind for kind in EventKind}
