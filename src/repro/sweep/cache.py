"""Content-addressed on-disk cache for sweep point results.

A cache entry is keyed by the SHA-256 of everything that determines a
point's result: the trace digest (:meth:`repro.trace.trace.Trace.digest`),
the canonicalised resolved parameter dict
(:func:`repro.sweep.spec.params_canonical_dict`), and the package
version — so a repeated sweep is near-free, while editing the spec,
re-measuring the trace, or upgrading the package all invalidate exactly
the entries they should.

Layout: ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps
directories small on big sweeps).  Entries are written through
:func:`repro.util.atomic.atomic_write`, so concurrent sweeps and
crashes can never leave a truncated entry; a corrupted or
foreign-schema entry is treated as a miss and replaced, never a crash.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro import __version__
from repro.core.parameters import SimulationParameters
from repro.sweep.spec import params_canonical_dict
from repro.util.atomic import atomic_write_text
from repro.util.log import get_logger

log = get_logger("sweep.cache")

#: Bump when the cached result payload changes shape.
CACHE_SCHEMA = 1

#: Default cache root (relative to the working directory).
DEFAULT_CACHE_DIR = ".extrap-cache"


def result_key(
    trace_digest: str,
    params: SimulationParameters,
    *,
    version: str = __version__,
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """Content address (hex SHA-256) for one extrapolation result."""
    material = {
        "schema": CACHE_SCHEMA,
        "trace": trace_digest,
        "params": params_canonical_dict(params),
        "version": version,
    }
    if extra:
        material["extra"] = dict(extra)
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """On-disk result store with hit/miss accounting.

    ``hits`` / ``misses`` count this instance's lookups; the sweep
    executor copies them into its :class:`repro.perf.SweepCounters`.
    """

    def __init__(self, root: "str | Path" = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result dict, or ``None`` on a miss.

        Any unreadable entry — truncated JSON, wrong schema, wrong
        embedded key, not a dict — counts as a miss; the bad file is
        removed so the following :meth:`put` heals it.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if (
                not isinstance(entry, dict)
                or entry.get("schema") != CACHE_SCHEMA
                or entry.get("key") != key
                or not isinstance(entry.get("result"), dict)
            ):
                raise ValueError("malformed cache entry")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as exc:
            log.warning("discarding corrupt cache entry %s: %s", path, exc)
            with contextlib.suppress(OSError):
                path.unlink()
            self.misses += 1
            return None
        self.hits += 1
        return entry["result"]

    def put(self, key: str, result: Mapping[str, Any]) -> Path:
        """Store ``result`` under ``key`` (atomic replace)."""
        path = self.path_for(key)
        entry = {"schema": CACHE_SCHEMA, "key": key, "result": dict(result)}
        text = json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        # A racing prune() tidies empty fan-out directories with rmdir,
        # which can land between our mkdir and the temp-file open, or
        # inside mkdir itself (it found the directory, which was then
        # gone when it checked, and raises FileExistsError) — recreate
        # the directory and try again.
        last_miss: Optional[OSError] = None
        for _ in range(100):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                return atomic_write_text(path, text)
            except (FileNotFoundError, FileExistsError) as exc:
                last_miss = exc
        raise last_miss

    # -- maintenance ---------------------------------------------------------

    def _entries(self):
        """Yield entry paths, tolerating concurrent deletion.

        Another process (a racing ``prune``, the serve memoizer, a plain
        ``rm -rf``) may remove entries, fan-out directories or the root
        itself at any point during the scan; a vanished directory is
        simply skipped, never an exception.  Yielded paths may still
        disappear before the caller touches them — per-entry operations
        guard themselves too.
        """
        if not self.root.is_dir():
            return
        try:
            subs = sorted(self.root.iterdir())
        except FileNotFoundError:
            return
        for sub in subs:
            try:
                if not sub.is_dir():
                    continue
                paths = sorted(sub.glob("*.json"))
            except FileNotFoundError:
                continue
            for path in paths:
                yield path

    def stats(self) -> Dict[str, Any]:
        """Entry count/size plus the sampled-vs-full breakdown.

        Sampled entries (results carrying ``estimated: true``) also
        report how many trace events their estimates simulated versus
        the full traces' totals — the basis of the "estimated compute
        saved" line in ``extrap sweep stats``.  Unreadable entries count
        toward ``entries``/``bytes`` but not the breakdown.
        """
        entries = 0
        total = 0
        sampled = 0
        full = 0
        events_total = 0
        events_simulated = 0
        for path in self._entries():
            with contextlib.suppress(OSError):
                total += path.stat().st_size
                entries += 1
                with contextlib.suppress(ValueError):
                    doc = json.loads(path.read_text(encoding="utf-8"))
                    result = doc.get("result")
                    if not isinstance(result, dict):
                        continue
                    if result.get("estimated"):
                        sampled += 1
                        info = result.get("sampling") or {}
                        events_total += int(info.get("events_total") or 0)
                        events_simulated += int(
                            info.get("events_simulated") or 0
                        )
                    else:
                        full += 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total,
            "full_entries": full,
            "sampled_entries": sampled,
            "sampled_events_total": events_total,
            "sampled_events_simulated": events_simulated,
        }

    def prune(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        # Tidy now-empty fan-out directories (best effort; the root may
        # vanish under us if another prune/rm races this one).
        if self.root.is_dir():
            try:
                subs = list(self.root.iterdir())
            except FileNotFoundError:
                subs = []
            for sub in subs:
                if sub.is_dir():
                    with contextlib.suppress(OSError):
                        os.rmdir(sub)
        return removed
