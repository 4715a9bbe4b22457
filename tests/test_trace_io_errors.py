"""Malformed-trace diagnostics: file, line number, offending text."""

import math
import struct

import pytest

from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import TraceReadError, read_trace, write_trace
from repro.trace.trace import Trace, TraceMeta


def sample_trace(n=2, mark=None):
    """Three events on thread 0, plus ``mark``'s MARK second if given."""
    marks = [TraceEvent(0.5, 0, EventKind.MARK, tag=mark)] if mark else []
    return Trace(
        TraceMeta(program="demo", n_threads=n),
        [
            TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
            *marks,
            TraceEvent(1.5, 0, EventKind.REMOTE_READ, owner=1, nbytes=128),
            TraceEvent(3.0, 0, EventKind.THREAD_END),
        ],
    )


# -- JSONL ------------------------------------------------------------------


def test_truncated_jsonl_line_names_file_and_line(tmp_path):
    path = write_trace(sample_trace(), tmp_path / "t.jsonl")
    text = path.read_text()
    path.write_text(text[: len(text) - 20])  # cut mid-final-line
    with pytest.raises(TraceReadError) as exc_info:
        read_trace(path)
    msg = str(exc_info.value)
    assert "t.jsonl" in msg
    assert ":4:" in msg  # header + 3 events; the 4th line is broken
    assert "malformed event line" in msg


def test_garbage_event_line_includes_snippet(tmp_path):
    path = write_trace(sample_trace(), tmp_path / "t.jsonl")
    lines = path.read_text().splitlines()
    lines[2] = "not json at all"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceReadError, match=r"t\.jsonl:3: .*'not json at all'"):
        read_trace(path)


def test_valid_json_but_bad_event_line(tmp_path):
    path = write_trace(sample_trace(), tmp_path / "t.jsonl")
    lines = path.read_text().splitlines()
    lines[1] = '{"totally": "wrong"}'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceReadError, match=r"t\.jsonl:2: bad trace event"):
        read_trace(path)


def test_invalid_utf8_names_file_and_line(tmp_path):
    path = write_trace(sample_trace(), tmp_path / "t.jsonl")
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b'"t"', b'"\xff"')
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(TraceReadError, match=r"t\.jsonl:2: invalid UTF-8"):
        read_trace(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_other_line_endings_read_like_newline(tmp_path, newline):
    plain = write_trace(sample_trace(), tmp_path / "t.jsonl")
    other = tmp_path / "crlf.jsonl"
    other.write_bytes(plain.read_bytes().replace(b"\n", newline.encode()))
    assert read_trace(other).events == read_trace(plain).events
    assert read_trace(other).digest() == read_trace(plain).digest()


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("k", [2, 4, 5])
def test_bad_event_reports_its_line(tmp_path, newline, k):
    """Line numbers count only \\n, \\r\\n and \\r breaks: a raw U+2028
    or U+0085 inside a tag (both legal in a JSON string) shifts none."""
    trace = sample_trace(mark="a\u2028b\x85c")
    path = write_trace(trace, tmp_path / "t.jsonl")
    text = path.read_text(encoding="utf-8")
    lines = text.replace("\\u2028", "\u2028").replace("\\u0085", "\x85").split("\n")
    assert "\u2028" in lines[2]
    lines[k - 1] = '{"t": 1.0, "th": 0}'  # no kind
    path.write_bytes(newline.join(lines).encode("utf-8"))
    with pytest.raises(TraceReadError, match=rf"t\.jsonl:{k}: bad trace event"):
        read_trace(path)


def test_empty_file(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("")
    with pytest.raises(TraceReadError, match=r"t\.jsonl:1: empty file"):
        read_trace(path)


def test_missing_meta_header(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"nope": 1}\n')
    with pytest.raises(TraceReadError, match="missing metadata header"):
        read_trace(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("{broken\n")
    with pytest.raises(TraceReadError, match=r"t\.jsonl:1: malformed header"):
        read_trace(path)


def _jsonl_with_event_lines(tmp_path, lines):
    """A one-thread JSONL trace whose event lines are ``lines``."""
    path = write_trace(Trace(TraceMeta(program="demo", n_threads=1)), tmp_path / "t.jsonl")
    path.write_text(path.read_text() + "\n".join(lines) + "\n")
    return path


def test_lines_that_only_join_into_json_are_each_malformed(tmp_path):
    """Each line is decoded on its own: two halves that would form a
    valid JSON array together still fail at the first half's line."""
    first = '{"t":0,"th":0,"k":0},{"t":0'
    path = _jsonl_with_event_lines(tmp_path, [first, '"th":0,"k":0}'])
    with pytest.raises(TraceReadError) as exc_info:
        read_trace(path)
    assert str(exc_info.value) == (
        f"{path}:2: malformed event line (Extra data): {first!r}"
    )


def test_trailing_data_after_an_event_is_malformed(tmp_path):
    line = '{"t":0,"th":0,"k":0} {"t":1}'
    path = _jsonl_with_event_lines(tmp_path, [line])
    with pytest.raises(TraceReadError) as exc_info:
        read_trace(path)
    assert str(exc_info.value) == (
        f"{path}:2: malformed event line (Extra data): {line!r}"
    )


def test_whitespace_padded_event_line_parses(tmp_path):
    path = _jsonl_with_event_lines(
        tmp_path, [' \t{"t":0,"th":0,"k":0}  ', '{"t":1.5,"th":0,"k":1}\t']
    )
    assert read_trace(path).events == (
        TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
        TraceEvent(1.5, 0, EventKind.THREAD_END),
    )


def test_nan_time_parses(tmp_path):
    path = _jsonl_with_event_lines(tmp_path, ['{"t":NaN,"th":0,"k":0}'])
    (ev,) = read_trace(path).events
    assert math.isnan(ev.time)
    assert (ev.thread, ev.kind) == (0, EventKind.THREAD_BEGIN)


# -- binary -----------------------------------------------------------------


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TraceReadError, match="magic"):
        read_trace(path)


def test_binary_truncated_records(tmp_path):
    path = write_trace(sample_trace(), tmp_path / "t.bin")
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(TraceReadError, match="truncated trace"):
        read_trace(path)


def test_binary_truncated_header(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(b"XTRP" + b"\x01\x00")
    with pytest.raises(TraceReadError, match="incomplete header"):
        read_trace(path)


def test_binary_unsupported_version(tmp_path):
    path = write_trace(sample_trace(), tmp_path / "t.bin")
    data = bytearray(path.read_bytes())
    data[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(TraceReadError, match="version 99"):
        read_trace(path)


def test_trace_read_error_is_value_error(tmp_path):
    """Callers that caught ValueError before keep working."""
    path = tmp_path / "t.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        read_trace(path)
