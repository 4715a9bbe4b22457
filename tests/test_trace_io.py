"""Trace file round-trips, both formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import read_trace, write_trace
from repro.trace.trace import Trace, TraceMeta


def sample_trace():
    return Trace(
        TraceMeta(program="demo", n_threads=2, size_mode="actual", problem={"k": 1}),
        [
            TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
            TraceEvent(1.5, 0, EventKind.REMOTE_READ, owner=1, nbytes=128, collection="grid"),
            TraceEvent(2.0, 0, EventKind.BARRIER_ENTER, barrier_id=0),
            TraceEvent(2.5, 1, EventKind.MARK, tag="phase-1"),
            TraceEvent(3.0, 0, EventKind.THREAD_END),
        ],
    )


@pytest.mark.parametrize("suffix", [".jsonl", ".bin"])
def test_roundtrip(tmp_path, suffix):
    tr = sample_trace()
    path = write_trace(tr, tmp_path / f"t{suffix}")
    back = read_trace(path)
    assert back.meta.to_dict() == tr.meta.to_dict()
    assert back.events == tr.events


def test_unknown_suffix(tmp_path):
    with pytest.raises(ValueError):
        write_trace(sample_trace(), tmp_path / "t.xyz")
    with pytest.raises(ValueError):
        read_trace(tmp_path / "t.xyz")


def test_unknown_suffix_error_lists_supported_formats(tmp_path):
    with pytest.raises(ValueError, match=r"\.jsonl.*\.bin"):
        write_trace(sample_trace(), tmp_path / "t.xyz")
    with pytest.raises(ValueError, match=r"\.jsonl.*\.bin"):
        read_trace(tmp_path / "t.xyz")


@pytest.mark.parametrize("suffix", [".JSONL", ".JsonL", ".BIN", ".Bin"])
def test_suffix_case_insensitive(tmp_path, suffix):
    """Regression: .JSONL / .Bin used to hit the unknown-suffix error."""
    tr = sample_trace()
    path = write_trace(tr, tmp_path / f"t{suffix}")
    back = read_trace(path)
    assert back.events == tr.events


def test_binary_magic_check(tmp_path):
    p = tmp_path / "t.bin"
    p.write_bytes(b"NOPE" + b"\0" * 40)
    with pytest.raises(ValueError, match="magic"):
        read_trace(p)


def test_jsonl_missing_header(tmp_path):
    p = tmp_path / "t.jsonl"
    p.write_text('{"t": 0, "th": 0, "k": 0}\n')
    with pytest.raises(ValueError, match="header"):
        read_trace(p)


def test_binary_version_check(tmp_path):
    import struct

    tr = sample_trace()
    path = write_trace(tr, tmp_path / "t.bin")
    data = bytearray(path.read_bytes())
    # Bump the version field (bytes 4..8, little-endian u32).
    data[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="version"):
        read_trace(path)


def test_binary_truncation_detected(tmp_path):
    tr = sample_trace()
    path = write_trace(tr, tmp_path / "t.bin")
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(ValueError, match="truncated"):
        read_trace(path)


events = st.lists(
    st.builds(
        TraceEvent,
        time=st.floats(min_value=0, max_value=1e7, allow_nan=False),
        thread=st.integers(0, 7),
        kind=st.sampled_from(list(EventKind)),
        barrier_id=st.integers(-1, 100),
        owner=st.integers(-1, 7),
        nbytes=st.integers(0, 1 << 20),
        collection=st.sampled_from(["", "a", "grid", "équations"]),
        tag=st.sampled_from(["", "m1"]),
    ),
    max_size=50,
)


@settings(max_examples=30, deadline=None)
@given(events=events, suffix=st.sampled_from([".jsonl", ".bin"]))
def test_roundtrip_property(tmp_path_factory, events, suffix):
    tmp = tmp_path_factory.mktemp("traces")
    tr = Trace(TraceMeta(program="p", n_threads=8), events)
    back = read_trace(write_trace(tr, tmp / f"t{suffix}"))
    assert back.events == tr.events
