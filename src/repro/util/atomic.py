"""Crash-safe file writes.

Every artifact the pipeline produces — traces, result JSON, benchmark
baselines, exported timelines — is written through :func:`atomic_write`:
the content goes to a temporary file in the destination directory and is
moved into place with ``os.replace`` only once fully written and
flushed.  A crash (or a fault-injection run killed mid-write) leaves
either the old file or the new file, never a truncated hybrid.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(
    path: str | Path, *, mode: str = "w", encoding: str | None = None
) -> Iterator[IO]:
    """Context manager yielding a file handle that atomically replaces
    ``path`` on successful exit.

    The temporary file lives in the same directory as the destination so
    ``os.replace`` stays a same-filesystem rename.  On an exception the
    temporary file is removed and the destination is left untouched.
    """
    path = Path(path)
    if "r" in mode or "a" in mode or "+" in mode:
        raise ValueError(f"atomic_write is write-only, got mode {mode!r}")
    if encoding is None and "b" not in mode:
        encoding = "utf-8"
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp"
    )
    fh = os.fdopen(fd, mode, encoding=encoding)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            fh.close()
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    path = Path(path)
    with atomic_write(path) as fh:
        fh.write(text)
    return path
