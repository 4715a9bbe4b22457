"""Trace.digest(): stable content identity over the canonical encoding.

Also the digest memo: a trace's events are fixed once it is built, so it
is hashed once until its meta changes; and oracle (d): every file format
and compression of a generated trace digests like the in-memory trace,
before and after drawn mutations.
"""

import copy
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.trace.trace as trace_mod
from repro.bench.suite import get_benchmark
from repro.core.pipeline import measure
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import read_trace, write_trace
from repro.trace.trace import Trace, TraceMeta, digest_events


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
    t = _fixed_trace()
    assert t.digest() == FIXED_DIGEST
    assert t.digest() == FIXED_DIGEST  # the memoised answer
    path = tmp_path / "fixed.jsonl.gz"
    write_trace(t, path)
    assert read_trace(path).digest() == FIXED_DIGEST
    # Hashing chunk boundaries must not show in the digest.
    monkeypatch.setattr(trace_mod, "DIGEST_CHUNK", 3)
    assert _fixed_trace().digest() == FIXED_DIGEST
    assert read_trace(path).digest() == FIXED_DIGEST


# -- the digest memo ---------------------------------------------------------


@pytest.fixture
def hashes(monkeypatch):
    """Records every ``digest_events`` call ``Trace.digest`` makes."""
    calls = []
    real = trace_mod.digest_events

    def counting(meta, events):
        calls.append(len(events))
        return real(meta, events)

    monkeypatch.setattr(trace_mod, "digest_events", counting)
    return calls


def test_unchanged_trace_is_hashed_once(hashes):
    t = _fixed_trace()
    assert t.digest() == t.digest() == FIXED_DIGEST
    assert hashes == [len(t.events)]


def _nested_trace():
    t = _fixed_trace()
    t.meta.problem["dist"] = {"scheme": ["block"]}
    return t


# Each mutation returns ``(changed, undo)``: the trace carrying the change,
# and a callable returning the trace with the change undone.  A built
# trace's events are fixed, so an event change builds a new trace from
# the changed events; a meta change edits the trace in place.

_LATE = TraceEvent(3e6, 0, EventKind.MARK, tag="late")


def _append(t):
    changed = Trace(t.meta, t.events + (_LATE,))
    return changed, lambda: Trace(changed.meta, changed.events[:-1])


def _pop(t):
    ev = t.events[-1]
    changed = Trace(t.meta, t.events[:-1])
    return changed, lambda: Trace(changed.meta, changed.events + (ev,))


def _replace(t):
    old = t.events[3]
    events = list(t.events)
    events[3] = old._replace(time=old.time + 1.0)
    changed = Trace(t.meta, events)

    def undo():
        events[3] = old
        return Trace(changed.meta, events)

    return changed, undo


def _reorder(t):
    changed = Trace(t.meta, reversed(t.events))
    return changed, lambda: Trace(changed.meta, reversed(changed.events))


def _rebind(t):
    old = t.events
    changed = Trace(t.meta, old[:-2])
    return changed, lambda: Trace(changed.meta, old)


def _nested_problem(t):
    scheme = t.meta.problem["dist"]["scheme"]
    scheme.append("cyclic")

    def undo():
        scheme.pop()
        return t

    return t, undo


def _n_threads(t):
    t.meta.n_threads = 3

    def undo():
        t.meta.n_threads = 2
        return t

    return t, undo


@pytest.mark.parametrize(
    "mutate",
    [_append, _pop, _replace, _reorder, _rebind, _nested_problem, _n_threads],
    ids=lambda f: f.__name__.strip("_"),
)
def test_every_content_change_rehashes(mutate):
    t = _nested_trace()
    original = t.digest()
    events = t.events
    changed, undo = mutate(t)
    assert changed.digest() == digest_events(changed.meta, changed.events) != original
    restored = undo()
    assert restored.digest() == original
    assert t.events is events and t.digest() == original


def test_events_are_fixed_once_built():
    """Every way to change a built trace's events raises."""
    t = _nested_trace()
    original = t.digest()
    events = t.events
    late = TraceEvent(3e6, 0, EventKind.MARK, tag="late")
    mutations = {
        "append": lambda: t.events.append(late),
        "pop": lambda: t.events.pop(),
        "replace": lambda: operator.setitem(t.events, 3, late),
        "delete": lambda: operator.delitem(t.events, 3),
        "reorder": lambda: t.events.reverse(),
        "rebind": lambda: setattr(t, "events", events[:-2]),
        "Trace.append": lambda: t.append(late),
    }
    for name, mutate in mutations.items():
        with pytest.raises((TypeError, AttributeError)):
            mutate()
        assert t.events is events, name
        assert t.digest() == original == digest_events(t.meta, t.events), name


def test_an_event_field_cannot_be_written():
    """Events are tuples, so no write can change a built trace."""
    t = _fixed_trace()
    original = t.digest()
    ev = t.events[1]
    with pytest.raises(AttributeError):
        object.__setattr__(ev, "nbytes", 65)
    with pytest.raises(AttributeError):
        ev.nbytes = 65
    assert ev.nbytes == 64
    assert t.digest() == original == digest_events(t.meta, t.events)


def test_an_equal_event_that_prints_differently_cannot_be_swapped_in():
    """``-0.0 == 0.0`` but they hash differently; the swap itself raises."""
    t = _fixed_trace()
    original = t.digest()
    ev = t.events[0]
    assert ev.time == 0.0
    with pytest.raises(TypeError):
        t.events[0] = ev._replace(time=-0.0)
    assert t.events[0] is ev
    assert t.digest() == original == digest_events(t.meta, t.events)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_the_digest_and_its_memo(clone, hashes):
    t = _fixed_trace()
    assert t.digest() == FIXED_DIGEST
    assert clone(t).digest() == FIXED_DIGEST
    assert len(hashes) == 1  # the memo travels with the copy


# -- oracle (d): formats, compressions and mutations -------------------------


#: floats the encodings must carry exactly, plus arbitrary finite ones
FLOATS = st.sampled_from([0.0, 1e-300, 1e15, 2 / 3]) | st.floats(
    0.0, 1e7, allow_nan=False
)
TEXT = st.sampled_from(["", "grid", "équation", "Δt", "相"]) | st.text(
    st.characters(codec="utf-8"), max_size=6
)


@st.composite
def events_for(draw, n_threads):
    """One event of any kind on one of ``n_threads`` threads."""
    return TraceEvent(
        draw(FLOATS),
        draw(st.integers(0, n_threads - 1)),
        draw(st.sampled_from(list(EventKind))),
        barrier_id=draw(st.integers(-1, 64)),
        owner=draw(st.integers(-1, n_threads - 1)),
        nbytes=draw(st.integers(0, 1 << 40)),
        collection=draw(TEXT),
        tag=draw(TEXT),
    )


@st.composite
def traces(draw):
    n = draw(st.integers(1, 6))
    meta = TraceMeta(
        program=draw(TEXT),
        n_threads=n,
        trace_mflops=draw(FLOATS),
        problem={"n": draw(st.integers(0, 99)), "label": draw(TEXT)},
    )
    return Trace(meta, draw(st.lists(events_for(n), max_size=24)))


#: (op, argument strategy) for the drawn mutations
MUTATIONS = st.one_of(
    st.tuples(st.just("append"), events_for(6)),
    st.tuples(st.just("pop"), st.integers(0, 99)),
    st.tuples(st.just("replace"), st.integers(0, 99), events_for(6)),
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("rebind"), st.integers(0, 99)),
    st.tuples(st.just("n_threads"), st.integers(1, 6)),
    st.tuples(st.just("problem"), TEXT),
)


def _mutate(t, op, *args):
    """Apply one drawn mutation; a change of events must raise."""
    evs = t.events
    if op == "n_threads":
        t.meta.n_threads = args[0]
    elif op == "problem":
        t.meta.problem.setdefault("nested", {}).setdefault("tags", []).append(args[0])
    else:
        with pytest.raises((TypeError, AttributeError)):
            if op == "append":
                evs.append(args[0])
            elif op == "pop":
                evs.pop(args[0] % (len(evs) or 1))
            elif op == "replace":
                evs[args[0] % (len(evs) or 1)] = args[1]
            elif op == "swap":
                i, j = args[0] % (len(evs) or 1), args[1] % (len(evs) or 1)
                evs[i], evs[j] = evs[j], evs[i]
            elif op == "rebind":
                t.events = evs[: args[0] % (len(evs) + 1)]
        assert t.events is evs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trace=traces())
def test_files_digest_like_the_trace(tmp_path_factory, trace):
    tmp = tmp_path_factory.mktemp("oracle")
    expected = digest_events(trace.meta, trace.events)
    assert trace.digest() == expected
    for fmt in (".jsonl", ".bin"):
        for compression in ("", ".gz", ".bz2", ".xz"):
            path = write_trace(trace, tmp / f"t{fmt}{compression}")
            assert read_trace(path).digest() == expected, path.name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    trace=traces(),
    steps=st.lists(st.tuples(MUTATIONS, st.booleans()), max_size=8),
)
def test_memoised_digest_follows_mutations(trace, steps):
    trace.digest()
    for (op, *args), check in steps:
        _mutate(trace, op, *args)
        if check:
            assert trace.digest() == digest_events(trace.meta, trace.events)
    assert trace.digest() == digest_events(trace.meta, trace.events)
