"""Trace containers.

:class:`Trace` holds the merged event stream of an n-thread run plus
metadata about the execution environment it was measured in (E1 in the
paper's terminology).  :class:`ThreadTrace` is one thread's event list —
the unit the translation algorithm emits and the simulator replays.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.trace.events import EventKind, TraceEvent


@dataclass
class TraceMeta:
    """Metadata identifying the measured execution environment.

    Attributes
    ----------
    program:
        Benchmark/program name.
    n_threads:
        Number of pC++ threads in the run.
    trace_mflops:
        Scalar MFLOPS rating of the machine the trace was measured on
        (the Sun4 in the paper: 1.1360).  The simulator's ``MipsRatio``
        rescales relative to this.
    size_mode:
        How remote transfer sizes were recorded: ``"compiler"`` (whole
        collection element, the paper's original abstraction) or
        ``"actual"`` (exact bytes requested, the §4.1 fix).
    problem:
        Free-form problem parameters (problem size, seeds, distribution).
    """

    program: str = ""
    n_threads: int = 0
    trace_mflops: float = 1.1360
    size_mode: str = "compiler"
    problem: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Mapping[str, Any]:
        return {
            "program": self.program,
            "n_threads": self.n_threads,
            "trace_mflops": self.trace_mflops,
            "size_mode": self.size_mode,
            "problem": dict(self.problem),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TraceMeta":
        return cls(
            program=str(d.get("program", "")),
            n_threads=int(d.get("n_threads", 0)),
            trace_mflops=float(d.get("trace_mflops", 1.1360)),
            size_mode=str(d.get("size_mode", "compiler")),
            problem=dict(d.get("problem", {})),
        )


#: Events hashed per ``update`` call in :func:`digest_events`.
DIGEST_CHUNK = 4096


def _meta_json(meta: TraceMeta) -> str:
    """The canonical (sorted-key) JSON of ``meta`` that digests hash."""
    return json.dumps(dict(meta.to_dict()), sort_keys=True)


def digest_events(meta: TraceMeta, events: Iterable[TraceEvent]) -> str:
    """SHA-256 over trace metadata + an event stream (hex).

    The single source of trace content addressing: :meth:`Trace.digest`
    calls it with the trace's event list, and any other event iterable
    with the same content hashes the same.
    """
    h = hashlib.sha256()
    h.update(_meta_json(meta).encode("utf-8"))
    events = iter(events)
    while chunk := list(islice(events, DIGEST_CHUNK)):
        # One line per event, hashed a chunk at a time (sha256 is
        # indifferent to how its input is split).  repr() of a float is
        # exact round-trip text, so equal timestamps always hash equally.
        # Unpacking each event is several times cheaper than reading its
        # eight fields by name.
        h.update(
            "".join(
                [
                    f"\n{t!r}|{th}|{int(k)}|{b}|{o}|{n}|{c}|{g}"
                    for t, th, k, b, o, n, c, g in chunk
                ]
            ).encode("utf-8")
        )
    return h.hexdigest()


class Trace:
    """Merged event stream of one n-thread, 1-processor run.

    ``events`` is a tuple fixed at construction: a trace is built once,
    by the tracing runtime, a reader or a merge, and extrapolated many
    times, so its events never change after it exists.  ``meta`` stays
    an ordinary (mutable) :class:`TraceMeta`.
    """

    def __init__(self, meta: TraceMeta, events: Iterable[TraceEvent] = ()):
        self.meta = meta
        self._events: Tuple[TraceEvent, ...] = tuple(events)
        #: §5 extrapolation-safety findings attached by the tracing
        #: runtime (in-memory diagnostic; not serialised to trace files).
        self.race_findings: List[Any] = []
        #: ``(meta JSON, digest)`` of the last :meth:`digest` call, or
        #: None before the first.
        self._digest_memo: Optional[Tuple[str, str]] = None

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def n_threads(self) -> int:
        return self.meta.n_threads

    @property
    def duration(self) -> float:
        """Virtual time span of the merged trace."""
        if not self.events:
            return 0.0
        return self.events[-1].time - self.events[0].time

    def split_by_thread(self) -> List["ThreadTrace"]:
        """Partition the merged stream into per-thread traces.

        Events keep their original (merged-run) timestamps; translation
        (:mod:`repro.core.translation`) is what rebases them.
        """
        per: List[List[TraceEvent]] = [[] for _ in range(self.meta.n_threads)]
        for ev in self.events:
            if not 0 <= ev.thread < self.meta.n_threads:
                raise ValueError(
                    f"event thread {ev.thread} out of range 0..{self.meta.n_threads - 1}"
                )
            per[ev.thread].append(ev)
        return [ThreadTrace(t, evs) for t, evs in enumerate(per)]

    def barrier_count(self) -> int:
        """Number of distinct barrier episodes in the trace."""
        return len({e.barrier_id for e in self.events if e.kind == EventKind.BARRIER_ENTER})

    def digest(self) -> str:
        """Stable SHA-256 of the trace content (hex).

        Hashes the metadata (canonical sorted-key JSON) and every event
        field through an encoding independent of the on-disk format, so
        a trace has the same digest whether it was just measured, read
        from ``.jsonl``, or read from ``.bin`` (compressed or not).
        Used as the trace part of sweep cache keys
        (:mod:`repro.sweep.cache`) and reported by ``extrap validate``.
        ``race_findings`` are in-memory diagnostics and do not
        participate.

        The events are fixed at construction, so the digest is memoised
        with only the canonical meta JSON it was computed under: a call
        whose meta JSON equals it returns the stored digest, and an edit
        of any meta field, down into ``meta.problem``, rehashes.
        """
        meta_json = _meta_json(self.meta)
        memo = self._digest_memo
        if memo is not None and memo[0] == meta_json:
            return memo[1]
        digest = digest_events(self.meta, self._events)
        self._digest_memo = (meta_json, digest)
        return digest

    @classmethod
    def from_thread_traces(
        cls, meta: TraceMeta, threads: Sequence["ThreadTrace"]
    ) -> "Trace":
        """Merge per-thread traces back into one time-ordered trace.

        The inverse of :meth:`split_by_thread` for translated or
        extrapolated traces (ties broken by thread id, so the result is
        deterministic).
        """
        events = [e for tt in threads for e in tt.events]
        events.sort(key=lambda e: (e.time, e.thread))
        merged = cls(meta, events)
        if meta.n_threads and meta.n_threads != len(threads):
            raise ValueError(
                f"metadata says {meta.n_threads} threads, got {len(threads)}"
            )
        return merged


@dataclass
class ThreadTrace:
    """One thread's event list (translated traces are lists of these)."""

    thread: int
    events: List[TraceEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    @property
    def start_time(self) -> float:
        if not self.events:
            return 0.0
        return self.events[0].time

    @property
    def end_time(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1].time

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def compute_deltas(self) -> List[float]:
        """Inter-event gaps — the thread's compute phases.

        The gap *before* each event (first gap measured from the thread's
        begin event).  Barrier-exit-to-next-event gaps are compute; the
        enter-to-exit gap is synchronisation wait, not compute, and is
        excluded.
        """
        gaps: List[float] = []
        prev: TraceEvent | None = None
        for ev in self.events:
            if prev is not None:
                gap = ev.time - prev.time
                if ev.kind == EventKind.BARRIER_EXIT:
                    gap = 0.0  # waiting at the barrier, not computing
                gaps.append(gap)
            prev = ev
        return gaps
