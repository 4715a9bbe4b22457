"""Trace.digest(): stable content identity over the canonical encoding."""

from repro.bench.suite import get_benchmark
from repro.core.pipeline import measure
from repro.trace.io import read_trace, write_trace


def _trace(bench="embar", n=4):
    info = get_benchmark(bench)
    return measure(info.make_program()(n), n, name=bench)


def test_digest_is_stable_and_hex():
    t = _trace()
    d = t.digest()
    assert d == t.digest()
    assert len(d) == 64 and int(d, 16) >= 0


def test_digest_deterministic_across_remeasure():
    assert _trace().digest() == _trace().digest()


def test_digest_distinguishes_workloads():
    assert _trace("embar", 4).digest() != _trace("embar", 2).digest()
    assert _trace("embar", 4).digest() != _trace("cyclic", 4).digest()


def test_digest_survives_io_roundtrip(tmp_path):
    t = _trace()
    for name in ("t.jsonl", "t.bin"):
        path = tmp_path / name
        write_trace(t, path)
        assert read_trace(path).digest() == t.digest()


def _fixed_trace():
    """Two threads, one barrier, remote accesses, a mark: every field set."""
    from repro.trace.events import EventKind as K, TraceEvent as E
    from repro.trace.trace import Trace, TraceMeta

    events = []
    for th in (0, 1):
        other = 1 - th
        events += [
            E(0.0, th, K.THREAD_BEGIN),
            E(0.1 + 0.2 * th, th, K.REMOTE_READ, owner=other, nbytes=64,
              collection="grid"),
            E(0.5, th, K.MARK, tag=f"phase-{th} é"),
            E(2.0 / 3.0 + th, th, K.BARRIER_ENTER, barrier_id=0),
            E(2.0, th, K.BARRIER_EXIT, barrier_id=0),
            E(2.25, th, K.REMOTE_WRITE, owner=other, nbytes=8, collection="x"),
            E(1e6 + 0.1, th, K.THREAD_END),
        ]
    return Trace(TraceMeta(program="fixed", n_threads=2, problem={"n": 2}), events)


#: sha256 of the canonical encoding of ``_fixed_trace()``.
FIXED_DIGEST = "fc35ad662a255c550e2ec9bc852465438fffdbf022df0f536139d44a56b631fe"


def test_digest_pinned_and_streaming_equal(tmp_path, monkeypatch):
    import repro.trace.trace as trace_mod
    from repro.trace.io import streaming_digest

    t = _fixed_trace()
    assert t.digest() == FIXED_DIGEST
    path = tmp_path / "fixed.jsonl.gz"
    write_trace(t, path)
    assert streaming_digest(path) == FIXED_DIGEST
    # Hashing chunk boundaries must not show in the digest.
    monkeypatch.setattr(trace_mod, "DIGEST_CHUNK", 3)
    assert t.digest() == FIXED_DIGEST
    assert streaming_digest(path) == FIXED_DIGEST
