"""Engine-level instrumentation counters.

:class:`EngineCounters` is the cheap always-additive counter block the
DES engine fills in when profiling is enabled
(:meth:`repro.des.Environment.enable_profiling`).  It deliberately has
no dependencies on the rest of the library so the engine can import it
without layering cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class EngineCounters:
    """Counters maintained by the event loop while profiling is on.

    Attributes
    ----------
    events_total:
        Queue entries processed (same quantity as
        :attr:`~repro.des.Environment.processed_event_count`, but only
        counted while profiling was enabled).
    events_by_type:
        Processed-entry histogram keyed by event class name
        (``Timeout``, ``StoreGet``, ``Event``, ...), with ``Call`` for
        a plain call (:meth:`~repro.des.Environment.call_at`,
        ``call_in``, ``call_first``, ``Store.get_then``).
    callbacks_fired:
        Total callbacks invoked by event processing, one per call.
    scheduled_total:
        Entries pushed onto the heap while profiling was enabled.
    heap_peak:
        Largest queue length observed.
    """

    events_total: int = 0
    events_by_type: Dict[str, int] = field(default_factory=dict)
    callbacks_fired: int = 0
    scheduled_total: int = 0
    heap_peak: int = 0

    def count(self, fn, arg) -> None:
        """Record one processed queue entry, the call ``fn(arg)``
        (called by the engine loop).  An event's processing
        (``Event._process(event)``) counts under the event's class name
        with one callback per waiter; any other call under ``Call``."""
        self.events_total += 1
        by_type = self.events_by_type
        if getattr(fn, "__qualname__", None) == "Event._process":
            name = type(arg).__name__
            self.callbacks_fired += len(arg.callbacks)
        else:
            name = "Call"
            self.callbacks_fired += 1
        by_type[name] = by_type.get(name, 0) + 1

    def pushed(self, queue_len: int) -> None:
        """Record one heap push leaving ``queue_len`` entries queued."""
        self.scheduled_total += 1
        if queue_len > self.heap_peak:
            self.heap_peak = queue_len

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot."""
        return {
            "events_total": self.events_total,
            "events_by_type": dict(
                sorted(self.events_by_type.items(), key=lambda kv: -kv[1])
            ),
            "callbacks_fired": self.callbacks_fired,
            "scheduled_total": self.scheduled_total,
            "heap_peak": self.heap_peak,
        }

    def format(self) -> str:
        """Short text block for reports."""
        lines = [
            f"engine counters: {self.events_total} events processed, "
            f"{self.callbacks_fired} callbacks, heap peak {self.heap_peak}",
        ]
        for name, count in sorted(
            self.events_by_type.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {name:16s} {count}")
        return "\n".join(lines)


@dataclass
class SweepCounters:
    """Throughput and cache accounting for one sweep run.

    Filled by :func:`repro.sweep.executor.run_sweep`: how many points
    the spec expanded to, how the cache answered, how many actually
    executed (including watchdog-triggered retries), and the wall time.
    Everything here is observability — none of it participates in the
    sweep's result artifact, which must stay byte-identical across
    ``--jobs`` settings and cache states.
    """

    points_total: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    retried: int = 0
    failed: int = 0
    wall_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Cache hit fraction over all lookups (0.0 with caching off)."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def points_per_s(self) -> float:
        """End-to-end sweep throughput (cached points included)."""
        return self.points_total / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot."""
        return {
            "points_total": self.points_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "retried": self.retried,
            "failed": self.failed,
            "wall_s": self.wall_s,
            "hit_rate": self.hit_rate,
            "points_per_s": self.points_per_s,
        }

    def format(self) -> str:
        """One-line summary for CLI output."""
        line = (
            f"cache: {self.cache_hits} hits, {self.cache_misses} misses "
            f"({self.hit_rate:.0%} hit rate)"
        )
        if self.failed:
            line += f"; {self.failed} points FAILED"
        return line
