"""Trace file formats.

Two on-disk encodings:

* **JSONL** (``.jsonl``): a metadata header line then one compact JSON
  object per event.  Human-inspectable; the default.
* **Binary** (``.bin``): the same header as a JSON line, then
  fixed-layout little-endian records (struct format ``<dii i i q``  plus
  interned strings).  ~5x smaller and faster for big traces.

Both formats round-trip exactly (modulo float64 representation, which is
exact for our timestamps).

Either format may additionally be compressed with gzip, bzip2 or xz —
the compression is picked from the *outer* suffix (``prog.jsonl.gz``,
``PROG.BIN.XZ``; case-insensitive) and is transparent to every reader
and writer here.  Compressed JSONL writes are deterministic (gzip is
written with a zeroed mtime), so byte-identity guarantees survive
compression.

For traces too large to materialize, :func:`stream_trace` yields events
one at a time straight off the (possibly compressed) file, and
:func:`streaming_digest` computes :meth:`repro.trace.trace.Trace.digest`
in the same single pass.
"""

from __future__ import annotations

import bz2
import gzip
import io as _io
import json
import lzma
import struct
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace, TraceMeta, digest_events
from repro.util.atomic import atomic_write


class TraceReadError(ValueError):
    """A trace file is malformed (truncated, corrupt, or not a trace).

    The message always names the file, and for line-oriented formats the
    1-based line number and the offending text, so a corrupted artifact
    is diagnosable without opening it in an editor.
    """


def _snippet(text: str, limit: int = 60) -> str:
    text = text.rstrip("\n")
    return text[:limit] + "..." if len(text) > limit else text


_MAGIC = b"XTRP"
_VERSION = 1
# time, thread, kind, barrier_id, owner, nbytes, collection idx, tag idx
_REC = struct.Struct("<diiiiqii")


#: Supported on-disk trace formats, by (case-insensitive) suffix.
SUPPORTED_SUFFIXES = (".jsonl", ".bin")

#: Transparent compression wrappers, by (case-insensitive) outer suffix.
COMPRESSION_SUFFIXES = (".gz", ".bz2", ".xz")


def trace_format(path: Path) -> Tuple[str, Optional[str]]:
    """``(format suffix, compression suffix or None)`` for ``path``.

    Sees through one compression extension, case-insensitively:
    ``prog.jsonl.gz`` dispatches as gzip-compressed JSONL.  Anything
    else raises a :class:`ValueError` naming the unrecognized suffix
    chain.
    """
    path = Path(path)
    suffixes = [s.lower() for s in path.suffixes[-2:]]
    compression = None
    if suffixes and suffixes[-1] in COMPRESSION_SUFFIXES:
        compression = suffixes[-1]
        suffixes = suffixes[:-1]
    fmt = suffixes[-1] if suffixes else ""
    if fmt not in SUPPORTED_SUFFIXES:
        chain = "".join(path.suffixes[-2:]) or "(none)"
        supported = ", ".join(SUPPORTED_SUFFIXES)
        compressions = "/".join(COMPRESSION_SUFFIXES)
        raise ValueError(
            f"unknown trace suffix chain {chain!r} for {path.name!r}; "
            f"supported formats: {supported} "
            f"(optionally compressed: {compressions})"
        )
    return fmt, compression


def _open_stream(path: Path, compression: Optional[str]):
    """Binary read handle, transparently decompressing."""
    if compression == ".gz":
        return gzip.open(path, "rb")
    if compression == ".bz2":
        return bz2.open(path, "rb")
    if compression == ".xz":
        return lzma.open(path, "rb")
    return path.open("rb")


def _compress_bytes(data: bytes, compression: Optional[str]) -> bytes:
    """Deterministically compress ``data`` (gzip with zeroed mtime)."""
    if compression is None:
        return data
    if compression == ".gz":
        buf = _io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
            gz.write(data)
        return buf.getvalue()
    if compression == ".bz2":
        return bz2.compress(data)
    return lzma.compress(data)


def write_trace(trace: Trace, path: str | Path) -> Path:
    """Write ``trace`` to ``path``; format chosen by suffix (.jsonl/.bin,
    case-insensitive, optionally compressed: .gz/.bz2/.xz)."""
    path = Path(path)
    fmt, compression = trace_format(path)
    if fmt == ".bin":
        payload = _binary_bytes(trace)
    else:
        payload = _jsonl_text(trace).encode("utf-8")
    with atomic_write(path, mode="wb") as fh:
        fh.write(_compress_bytes(payload, compression))
    return path


class TraceFileWriter:
    """Incremental JSONL trace writer.

    Real tracing runtimes stream events to disk instead of holding them
    in memory (that is where the event-buffer flush overhead of §3.2
    comes from).  Pass :meth:`append` as the tracing runtime's event
    sink to write as you measure::

        with TraceFileWriter("run.jsonl", meta) as w:
            rt = TracingRuntime(8, "grid", sink=w.append)
            rt.run(bodies)

    Only the JSONL format supports appending (the binary format needs
    the event count up front); a compression suffix (``run.jsonl.gz``)
    streams through the matching compressor.
    """

    def __init__(self, path: str | Path, meta: TraceMeta):
        path = Path(path)
        try:
            fmt, compression = trace_format(path)
        except ValueError:
            raise ValueError(
                f"streaming writer supports .jsonl only, got {path.suffix!r} "
                "(for .bin, collect events and use write_trace())"
            ) from None
        if fmt == ".bin":
            raise ValueError(
                f"{path}: TraceFileWriter streams .jsonl and cannot produce "
                "a binary trace (the .bin format needs the event count up "
                "front); buffer events and use write_trace() instead"
            )
        self.path = path
        self._closers: list = []
        if compression == ".gz":
            # gzip.open() would stamp the header with mtime and
            # filename; zero/omit both so streamed output is
            # byte-deterministic, matching write_trace().
            raw = path.open("wb")
            gz = gzip.GzipFile(fileobj=raw, filename="", mode="wb", mtime=0)
            self._fh = _io.TextIOWrapper(gz, encoding="utf-8")
            self._closers = [gz, raw]
        elif compression == ".bz2":
            self._fh = bz2.open(path, "wt", encoding="utf-8")
        elif compression == ".xz":
            self._fh = lzma.open(path, "wt", encoding="utf-8")
        else:
            self._fh = path.open("w", encoding="utf-8")
        self._fh.write(json.dumps({"meta": dict(meta.to_dict())}) + "\n")
        self.count = 0

    def append(self, event: TraceEvent) -> None:
        """Write one event."""
        if self._fh is None:
            raise ValueError(f"{self.path}: writer already closed")
        self._fh.write(json.dumps(dict(event.to_dict())) + "\n")
        self.count += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            for handle in self._closers:
                handle.close()
            self._closers = []

    def __enter__(self) -> "TraceFileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace` (suffix chosen
    case-insensitively; compressed files are decompressed transparently)."""
    path = Path(path)
    meta, events = stream_trace(path)
    return Trace(meta, events)


# -- streaming reads ---------------------------------------------------------


def stream_trace(path: str | Path) -> Tuple[TraceMeta, Iterator[TraceEvent]]:
    """``(meta, lazy event iterator)`` for a trace file of any format.

    The metadata header is parsed eagerly (so callers can size buffers
    and validate thread counts up front); events are yielded one at a
    time off the (possibly compressed) file, so a million-event trace
    is never materialized.  The underlying handle closes when the
    iterator is exhausted, closed, or garbage-collected.
    """
    path = Path(path)
    fmt, compression = trace_format(path)
    if fmt == ".bin":
        return _stream_binary(path, compression)
    return _stream_jsonl(path, compression)


def read_trace_meta(path: str | Path) -> TraceMeta:
    """Just the metadata header of a trace file (any format)."""
    meta, events = stream_trace(path)
    close = getattr(events, "close", None)
    if close is not None:
        close()
    return meta


def iter_trace_events(path: str | Path) -> Iterator[TraceEvent]:
    """Lazily yield every event of a trace file (any format)."""
    return stream_trace(path)[1]


def streaming_digest(path: str | Path) -> str:
    """:meth:`Trace.digest` of a trace file, computed in one pass.

    Equals ``read_trace(path).digest()`` for every supported format and
    compression — the digest is over trace *content*, so compressing a
    file never changes it.
    """
    meta, events = stream_trace(path)
    return digest_events(meta, events)


# -- JSONL ---------------------------------------------------------------


def _jsonl_text(trace: Trace) -> str:
    lines = [json.dumps({"meta": dict(trace.meta.to_dict())})]
    lines.extend(json.dumps(dict(ev.to_dict())) for ev in trace.events)
    return "\n".join(lines) + "\n"


def _decompress_error(path: Path, exc: Exception) -> TraceReadError:
    return TraceReadError(f"{path}: corrupt compressed trace ({exc})")


def _stream_jsonl(
    path: Path, compression: Optional[str]
) -> Tuple[TraceMeta, Iterator[TraceEvent]]:
    fh = _io.TextIOWrapper(_open_stream(path, compression), encoding="utf-8")
    try:
        try:
            header_line = fh.readline()
        except (OSError, EOFError, lzma.LZMAError) as exc:
            raise _decompress_error(path, exc) from None
        if not header_line.strip():
            raise TraceReadError(
                f"{path}:1: empty file, expected a metadata header line"
            )
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise TraceReadError(
                f"{path}:1: malformed header line ({exc.msg}): "
                f"{_snippet(header_line)!r}"
            ) from None
        if not isinstance(header, dict) or "meta" not in header:
            raise TraceReadError(
                f"{path}:1: missing metadata header line: {_snippet(header_line)!r}"
            )
        try:
            meta = TraceMeta.from_dict(header["meta"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceReadError(f"{path}:1: bad trace metadata: {exc}") from None
    except BaseException:
        fh.close()
        raise

    def events() -> Iterator[TraceEvent]:
        with fh:
            lineno = 1
            while True:
                try:
                    line = fh.readline()
                except (OSError, EOFError, lzma.LZMAError) as exc:
                    raise _decompress_error(path, exc) from None
                if not line:
                    return
                lineno += 1
                if not line.strip():
                    continue
                try:
                    yield TraceEvent.from_dict(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise TraceReadError(
                        f"{path}:{lineno}: malformed event line ({exc.msg}): "
                        f"{_snippet(line)!r}"
                    ) from None
                except (KeyError, TypeError, ValueError) as exc:
                    raise TraceReadError(
                        f"{path}:{lineno}: bad trace event ({exc}): "
                        f"{_snippet(line)!r}"
                    ) from None

    return meta, events()


# -- binary ----------------------------------------------------------------


def _binary_bytes(trace: Trace) -> bytes:
    # Intern collection names and tags into a string table.
    strings: List[str] = [""]
    index = {"": 0}

    def intern(s: str) -> int:
        if s not in index:
            index[s] = len(strings)
            strings.append(s)
        return index[s]

    records = bytearray()
    for ev in trace.events:
        records += _REC.pack(
            ev.time,
            ev.thread,
            int(ev.kind),
            ev.barrier_id,
            ev.owner,
            ev.nbytes,
            intern(ev.collection),
            intern(ev.tag),
        )

    meta_blob = json.dumps(dict(trace.meta.to_dict())).encode("utf-8")
    strings_blob = json.dumps(strings).encode("utf-8")
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<III", _VERSION, len(meta_blob), len(strings_blob))
    out += meta_blob
    out += strings_blob
    out += struct.pack("<Q", len(trace.events))
    out += records
    return bytes(out)


def _stream_binary(
    path: Path, compression: Optional[str]
) -> Tuple[TraceMeta, Iterator[TraceEvent]]:
    fh = _open_stream(path, compression)
    try:
        try:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise TraceReadError(
                    f"{path}: not an ExtraP binary trace (magic={magic!r})"
                )
            fixed = fh.read(12)
            if len(fixed) != 12:
                raise TraceReadError(f"{path}: truncated trace (incomplete header)")
            version, meta_len, str_len = struct.unpack("<III", fixed)
            if version != _VERSION:
                raise TraceReadError(f"{path}: unsupported trace version {version}")
            meta_blob = fh.read(meta_len)
            strings_blob = fh.read(str_len)
            if len(meta_blob) != meta_len or len(strings_blob) != str_len:
                raise TraceReadError(
                    f"{path}: truncated trace (incomplete metadata/string table)"
                )
            try:
                meta = TraceMeta.from_dict(json.loads(meta_blob))
                strings: List[str] = json.loads(strings_blob)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise TraceReadError(
                    f"{path}: corrupt trace metadata: {exc}"
                ) from None
            count_blob = fh.read(8)
            if len(count_blob) != 8:
                raise TraceReadError(f"{path}: truncated trace (missing event count)")
            (count,) = struct.unpack("<Q", count_blob)
        except (OSError, EOFError, lzma.LZMAError) as exc:
            raise _decompress_error(path, exc) from None
    except BaseException:
        fh.close()
        raise

    def events() -> Iterator[TraceEvent]:
        with fh:
            for rec_index in range(count):
                try:
                    blob = fh.read(_REC.size)
                except (OSError, EOFError, lzma.LZMAError) as exc:
                    raise _decompress_error(path, exc) from None
                if len(blob) != _REC.size:
                    raise TraceReadError(
                        f"{path}: truncated trace (expected {count} records, "
                        f"got {rec_index})"
                    )
                t, th, k, b, o, n, ci, gi = _REC.unpack(blob)
                try:
                    kind = EventKind(k)
                    collection = strings[ci]
                    tag = strings[gi]
                except (ValueError, IndexError) as exc:
                    raise TraceReadError(
                        f"{path}: corrupt record #{rec_index}: {exc}"
                    ) from None
                yield TraceEvent(
                    time=t,
                    thread=th,
                    kind=kind,
                    barrier_id=b,
                    owner=o,
                    nbytes=n,
                    collection=collection,
                    tag=tag,
                )

    return meta, events()
