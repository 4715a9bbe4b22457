"""Crash-safe atomic file writes."""

import os

import pytest

from repro.util.atomic import atomic_write, atomic_write_text


def test_atomic_write_text_creates_and_replaces(tmp_path):
    path = tmp_path / "out.txt"
    assert atomic_write_text(path, "one\n") == path
    assert path.read_text() == "one\n"
    atomic_write_text(path, "two\n")
    assert path.read_text() == "two\n"


def test_failure_leaves_original_intact_and_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("original")
    with pytest.raises(RuntimeError, match="boom"):
        with atomic_write(path) as fh:
            fh.write("partial garbage")
            raise RuntimeError("boom")
    assert path.read_text() == "original"
    assert os.listdir(tmp_path) == ["out.txt"], "temp file must be cleaned up"


def test_no_temp_files_after_success(tmp_path):
    atomic_write_text(tmp_path / "a.txt", "x")
    assert os.listdir(tmp_path) == ["a.txt"]


def test_write_only_modes(tmp_path):
    for mode in ("r", "a", "r+"):
        with pytest.raises(ValueError, match="write-only"):
            with atomic_write(tmp_path / "x", mode=mode):
                pass  # pragma: no cover


def test_trace_writes_are_atomic(tmp_path):
    """write_trace must not leave droppings beside the artifact."""
    from repro.trace.events import EventKind, TraceEvent
    from repro.trace.io import write_trace
    from repro.trace.trace import Trace, TraceMeta

    tr = Trace(
        TraceMeta(program="t", n_threads=1),
        [
            TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
            TraceEvent(1.0, 0, EventKind.THREAD_END),
        ],
    )
    for suffix in (".jsonl", ".bin"):
        write_trace(tr, tmp_path / f"t{suffix}")
    assert sorted(os.listdir(tmp_path)) == ["t.bin", "t.jsonl"]


def test_bench_baseline_write_is_atomic(tmp_path):
    from repro.perf.bench import load_baseline, write_baseline

    path = tmp_path / "BENCH_engine.json"
    write_baseline({"schema": 1, "workloads": {}}, path)
    assert load_baseline(path)["schema"] == 1
    assert os.listdir(tmp_path) == ["BENCH_engine.json"]


def test_keyboard_interrupt_leaves_original_and_no_temp(tmp_path):
    # Ctrl-C mid-write (e.g. during a sweep artifact dump) must neither
    # corrupt the destination nor leave a temp file behind.
    path = tmp_path / "out.txt"
    path.write_text("original")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert path.read_text() == "original"
    assert os.listdir(tmp_path) == ["out.txt"]
