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
``PROG.BIN.XZ``; case-insensitive) and is transparent to
:func:`read_trace` and :func:`write_trace`.  Compressed writes are
deterministic (gzip is written with a zeroed mtime), so byte-identity
guarantees survive compression.

The pipeline uses a measured trace whole (translation splits it per
thread and snaps barrier exits across threads), so :func:`read_trace`
is eager: it reads the file in one call, decompresses it in one call,
and decodes every event before returning.
"""

from __future__ import annotations

import bz2
import gzip
import io as _io
import json
import json.scanner
import lzma
import re
import struct
import zlib
from pathlib import Path
from typing import List, Optional, Tuple

from repro.trace.events import _KINDS, EventKind, TraceEvent
from repro.trace.trace import Trace, TraceMeta
from repro.util.atomic import atomic_write


class TraceReadError(ValueError):
    """A trace file is malformed (truncated, corrupt, or not a trace).

    The message always names the file, and for line-oriented formats the
    1-based line number and the offending text, so a corrupted artifact
    is diagnosable without opening it in an editor.
    """


def _snippet(text: str, limit: int = 60) -> str:
    return text[:limit] + "..." if len(text) > limit else text


_MAGIC = b"XTRP"
_VERSION = 1
# after the magic: version, metadata length, string-table length
_HEADER = struct.Struct("<III")
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


_DECOMPRESS = {".gz": gzip.decompress, ".bz2": bz2.decompress, ".xz": lzma.decompress}


def read_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`write_trace` (suffix chosen
    case-insensitively; compressed files are decompressed transparently)."""
    path = Path(path)
    fmt, compression = trace_format(path)
    data = path.read_bytes()
    if compression is not None:
        try:
            data = _DECOMPRESS[compression](data)
        except (OSError, EOFError, ValueError, lzma.LZMAError, zlib.error) as exc:
            raise TraceReadError(
                f"{path}: corrupt compressed trace ({exc})"
            ) from None
    if fmt == ".bin":
        meta, events = _decode_binary(path, data)
    else:
        meta, events = _decode_jsonl(path, data)
    return Trace(meta, events)


# -- JSONL ---------------------------------------------------------------


def _jsonl_text(trace: Trace) -> str:
    lines = [json.dumps({"meta": dict(trace.meta.to_dict())})]
    lines.extend(json.dumps(dict(ev.to_dict())) for ev in trace.events)
    return "\n".join(lines) + "\n"


#: ``scan_once(line, idx) -> (value, end)``: the json module's C scanner
#: with ``json.loads``'s default hooks (no per-line decoder setup).
_scan_once = json.scanner.make_scanner(json.JSONDecoder())

#: The line breaks a universal-newlines text reader splits on.
_NEWLINES = re.compile(rb"\r\n|\r|\n")


def _text_lines(path: Path, data: bytes) -> List[str]:
    """``data`` decoded as UTF-8 and split at ``\\n``, ``\\r\\n`` and ``\\r``.

    Only those three break a line (``str.splitlines`` would also split
    at U+2028 or form feeds and shift every later line number).
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        lineno = len(_NEWLINES.findall(head)) + 1
        line_start = max(head.rfind(b"\n"), head.rfind(b"\r")) + 1
        line = _NEWLINES.split(data[line_start:], 1)[0]
        raise TraceReadError(
            f"{path}:{lineno}: invalid UTF-8 ({exc.reason}): "
            f"{_snippet(line.decode('utf-8', 'replace'))!r}"
        ) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _decode_jsonl(path: Path, data: bytes) -> Tuple[TraceMeta, List[TraceEvent]]:
    lines = _text_lines(path, data)
    header_line = lines[0]
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

    events: List[TraceEvent] = []
    append = events.append
    from_dict = TraceEvent.from_dict
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            # One C-scanner call decodes a compact event line.  Only a
            # value that spans the whole line is taken; anything else
            # (blank, whitespace-padded, trailing data, malformed) goes
            # through ``json.loads`` on that same line, which accepts
            # or rejects it with the usual error text.
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, json.JSONDecodeError):
                end = -1
            if end != len(line):
                if not line.strip():
                    continue
                obj = json.loads(line)
            append(from_dict(obj))
        except json.JSONDecodeError as exc:
            raise TraceReadError(
                f"{path}:{lineno}: malformed event line ({exc.msg}): "
                f"{_snippet(line)!r}"
            ) from None
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceReadError(
                f"{path}:{lineno}: bad trace event ({exc}): {_snippet(line)!r}"
            ) from None
    return meta, events


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
    out += _HEADER.pack(_VERSION, len(meta_blob), len(strings_blob))
    out += meta_blob
    out += strings_blob
    out += struct.pack("<Q", len(trace.events))
    out += records
    return bytes(out)


def _decode_binary(path: Path, data: bytes) -> Tuple[TraceMeta, List[TraceEvent]]:
    magic = data[: len(_MAGIC)]
    if magic != _MAGIC:
        raise TraceReadError(f"{path}: not an ExtraP binary trace (magic={magic!r})")
    meta_start = len(_MAGIC) + _HEADER.size
    if len(data) < meta_start:
        raise TraceReadError(f"{path}: truncated trace (incomplete header)")
    version, meta_len, str_len = _HEADER.unpack_from(data, len(_MAGIC))
    if version != _VERSION:
        raise TraceReadError(f"{path}: unsupported trace version {version}")
    str_start = meta_start + meta_len
    offset = str_start + str_len
    if len(data) < offset:
        raise TraceReadError(
            f"{path}: truncated trace (incomplete metadata/string table)"
        )
    try:
        meta = TraceMeta.from_dict(json.loads(data[meta_start:str_start]))
        strings: List[str] = json.loads(data[str_start:offset])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise TraceReadError(f"{path}: corrupt trace metadata: {exc}") from None
    if len(data) < offset + 8:
        raise TraceReadError(f"{path}: truncated trace (missing event count)")
    (count,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    got = (len(data) - offset) // _REC.size
    if got < count:
        raise TraceReadError(
            f"{path}: truncated trace (expected {count} records, got {got})"
        )

    events: List[TraceEvent] = []
    records = _REC.iter_unpack(memoryview(data)[offset : offset + count * _REC.size])
    for rec_index, (t, th, k, b, o, n, ci, gi) in enumerate(records):
        kind = _KINDS.get(k)
        try:
            if kind is None:
                kind = EventKind(k)  # raises the usual ValueError
            collection = strings[ci]
            tag = strings[gi]
        except (ValueError, IndexError) as exc:
            raise TraceReadError(
                f"{path}: corrupt record #{rec_index}: {exc}"
            ) from None
        events.append(TraceEvent(t, th, kind, b, o, n, collection, tag))
    return meta, events
