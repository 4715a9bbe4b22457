"""Compressed trace I/O: transparent .gz/.bz2/.xz for both formats."""

import bz2
import gzip
import lzma

import pytest

from repro.trace.io import TraceReadError, read_trace, trace_format, write_trace
from repro.trace.events import EventKind, TraceEvent
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


FORMATS = (".jsonl", ".bin")
COMPRESSIONS = (".gz", ".bz2", ".xz")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("comp", COMPRESSIONS)
def test_compressed_roundtrip_digest_equality(tmp_path, fmt, comp):
    tr = sample_trace()
    plain = write_trace(tr, tmp_path / f"t{fmt}")
    packed = write_trace(tr, tmp_path / f"t{fmt}{comp}")
    assert read_trace(plain).events == read_trace(packed).events
    assert read_trace(packed).digest() == tr.digest()
    # The compressed file actually is compressed (format-specific magic).
    magic = {".gz": b"\x1f\x8b", ".bz2": b"BZh", ".xz": b"\xfd7zXZ"}[comp]
    assert packed.read_bytes()[: len(magic)] == magic


@pytest.mark.parametrize(
    "name", ["t.JSONL.GZ", "t.Jsonl.Gz", "t.BIN.XZ", "t.jsonl.BZ2"]
)
def test_compression_suffix_case_insensitive(tmp_path, name):
    tr = sample_trace()
    path = write_trace(tr, tmp_path / name)
    assert read_trace(path).events == tr.events


def test_unrecognized_suffix_chain_named(tmp_path):
    """The error names the whole suffix chain it could not place."""
    with pytest.raises(ValueError, match=r"\.zip"):
        write_trace(sample_trace(), tmp_path / "t.jsonl.zip")
    with pytest.raises(ValueError, match=r"\.csv\.gz"):
        write_trace(sample_trace(), tmp_path / "t.csv.gz")
    with pytest.raises(ValueError, match=r"\.gz"):
        read_trace(tmp_path / "t.gz")  # compression with no format under it


def test_trace_format_dispatch():
    from pathlib import Path

    assert trace_format(Path("a.jsonl")) == (".jsonl", None)
    assert trace_format(Path("a.bin.gz")) == (".bin", ".gz")
    assert trace_format(Path("a.JSONL.XZ")) == (".jsonl", ".xz")


def test_gzip_output_byte_deterministic(tmp_path):
    """gzip embeds an mtime by default; ours must not (byte-stable
    artifacts are part of the determinism contract)."""
    import time

    tr = sample_trace()
    a = write_trace(tr, tmp_path / "a.jsonl.gz")
    time.sleep(1.1)  # cross an mtime-second boundary
    b = write_trace(tr, tmp_path / "b.jsonl.gz")
    assert a.read_bytes() == b.read_bytes()


def test_corrupt_compressed_stream(tmp_path):
    """A damaged compressed file of either format is a TraceReadError
    naming the file, whether its stream is garbage or cut in half."""
    for fmt in FORMATS:
        for comp in COMPRESSIONS:
            packed = write_trace(sample_trace(), tmp_path / f"t{fmt}{comp}")
            data = packed.read_bytes()
            damaged = {
                "garbage": data[:3] + b"garbage-not-a-compressed-stream" * 4,
                "cut": data[: len(data) // 2],
            }
            for damage, blob in damaged.items():
                path = tmp_path / f"{damage}{fmt}{comp}"
                path.write_bytes(blob)
                with pytest.raises(
                    TraceReadError, match="corrupt compressed trace"
                ) as exc_info:
                    read_trace(path)
                assert path.name in str(exc_info.value)


@pytest.mark.parametrize("comp,mod", [(".gz", gzip), (".bz2", bz2), (".xz", lzma)])
def test_foreign_compressed_file_reads(tmp_path, comp, mod):
    """A file compressed by the stdlib tools directly (not our writer)
    still reads — we dispatch on suffix, not on who wrote it."""
    tr = sample_trace()
    plain = write_trace(tr, tmp_path / "t.jsonl")
    packed = tmp_path / f"t2.jsonl{comp}"
    packed.write_bytes(mod.compress(plain.read_bytes()))
    assert read_trace(packed).events == tr.events
