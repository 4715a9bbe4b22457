"""Serve service layer: validation contract, memoization, job queue."""

import json
import os
import threading
import time
from pathlib import Path

import pytest

import repro.serve.service as service_module
from repro.cli import main
from repro.core import presets
from repro.core.memo import PREPARED
from repro.core.predict import PredictMode, predict, predict_report
from repro.serve import (
    ApiError,
    ExtrapService,
    JobQueue,
    QueueClosedError,
    QueueFullError,
)
from repro.sweep import SweepSpec, run_sweep
from repro.serve.schema import validate_predict_request
from repro.metrics import result_record
from repro.sweep.cache import ResultCache, result_key
from repro.sweep.spec import apply_param_overrides
from repro.trace import read_trace


@pytest.fixture(scope="module")
def trace_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-traces")
    assert main(["trace", "embar", "-n", "4", "-o", str(root / "t.jsonl")]) == 0
    return root


@pytest.fixture
def service(trace_root, tmp_path):
    svc = ExtrapService(
        trace_root=trace_root,
        cache=ResultCache(tmp_path / "cache"),
        queue_depth=2,
        workers=1,
    )
    yield svc
    svc.close(drain=False, timeout=10)


def err(fn, *args):
    with pytest.raises(ApiError) as ei:
        fn(*args)
    return ei.value


# -- predict -----------------------------------------------------------------


def test_predict_miss_then_hit_identical(service):
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    first = service.predict(body)
    second = service.predict(body)
    assert first["cached"] is False
    assert second["cached"] is True
    assert first["metrics"] == second["metrics"]
    assert first["report"] == second["report"]
    assert first["key"] == second["key"]
    stats = service.stats()
    assert stats["cache"]["hits"] == 1
    assert stats["cache"]["misses"] == 1
    assert stats["cache"]["hit_rate"] == 0.5


@pytest.mark.parametrize(
    "extra_body, extra_argv, sample",
    [
        ({}, [], None),
        ({"sample": {"seed": 3}}, ["--sample", "--sample-seed", "3"], {"seed": 3}),
    ],
    ids=["full", "sampled"],
)
def test_predict_report_matches_cli(
    service, trace_root, capsys, extra_body, extra_argv, sample
):
    """CLI, serve and sweep answer one point with the same bytes."""
    response = service.predict(
        {"trace_path": "t.jsonl", "preset": "cm5", **extra_body}
    )
    argv = ["predict", str(trace_root / "t.jsonl"), "--preset", "cm5"]
    assert main(argv + extra_argv) == 0
    assert capsys.readouterr().out == response["report"] + "\n"
    spec = SweepSpec(name="one", preset="cm5", points=[{}], sample=sample)
    run = run_sweep(spec, trace=read_trace(trace_root / "t.jsonl"))
    assert response["metrics"] == run.records[0].result


def test_predict_inline_trace_same_key_as_path(service, trace_root):
    trace = read_trace(trace_root / "t.jsonl")
    inline = {
        "meta": trace.meta.to_dict(),
        "events": [e.to_dict() for e in trace.events],
    }
    by_path = service.predict({"trace_path": "t.jsonl"})
    by_inline = service.predict({"trace": inline})
    assert by_inline["cached"] is True  # same digest, same params
    assert by_inline["key"] == by_path["key"]
    assert by_inline["metrics"] == by_path["metrics"]


def test_predict_overrides_change_key(service):
    base = service.predict({"trace_path": "t.jsonl"})
    tweaked = service.predict(
        {
            "trace_path": "t.jsonl",
            "overrides": {"processor.mips_ratio": 0.5},
        }
    )
    assert tweaked["key"] != base["key"]
    assert tweaked["cached"] is False


def test_predict_without_cache_never_cached(trace_root):
    svc = ExtrapService(trace_root=trace_root, cache=None)
    try:
        assert svc.predict({"trace_path": "t.jsonl"})["cached"] is False
        assert svc.predict({"trace_path": "t.jsonl"})["cached"] is False
        assert svc.stats()["cache"] == {"enabled": False}
    finally:
        svc.close(drain=False)


# -- validation contract -----------------------------------------------------


def test_predict_unknown_field_suggests(service):
    e = err(service.predict, {"trase_path": "t.jsonl"})
    assert e.status == 400
    assert "trase_path" in e.message
    assert "did you mean" in e.message


def test_predict_needs_a_trace(service):
    assert err(service.predict, {"preset": "cm5"}).status == 400


def test_predict_rejects_both_trace_forms(service):
    e = err(
        service.predict,
        {"trace_path": "t.jsonl", "trace": {"meta": {}, "events": [{}]}},
    )
    assert e.status == 400
    assert "not both" in e.message


def test_predict_bad_preset_suggests(service):
    e = err(service.predict, {"trace_path": "t.jsonl", "preset": "cm-5"})
    assert e.status == 400
    assert "cm5" in e.message


def test_predict_bad_override_field(service):
    e = err(
        service.predict,
        {"trace_path": "t.jsonl", "overrides": {"processor.nope": 1}},
    )
    assert e.status == 400
    assert "processor" in e.message


def test_predict_non_object_body(service):
    assert err(service.predict, [1, 2]).status == 400
    assert err(service.predict, None).status == 400


def test_predict_bad_wall_budget(service):
    e = err(service.predict, {"trace_path": "t.jsonl", "wall_budget": 0})
    assert e.status == 400


def test_predict_bad_inline_events(service):
    e = err(
        service.predict,
        {"trace": {"meta": {"program": "x", "n_threads": 1}, "events": ["no"]}},
    )
    assert e.status == 400
    assert "events[0]" in e.message


# -- trace_path hardening ----------------------------------------------------


def test_trace_path_absolute_rejected(service, trace_root):
    e = err(service.predict, {"trace_path": str(trace_root / "t.jsonl")})
    assert e.status == 400
    assert "absolute" in e.message


def test_trace_path_escape_rejected(service):
    e = err(service.predict, {"trace_path": "../../etc/passwd"})
    assert e.status == 400
    assert "escapes" in e.message


def test_trace_path_missing_is_404(service):
    assert err(service.predict, {"trace_path": "nope.jsonl"}).status == 404


def test_trace_path_symlink_escape_rejected(tmp_path, trace_root):
    outside = tmp_path / "outside.jsonl"
    outside.write_text("{}\n")
    root = tmp_path / "root"
    root.mkdir()
    link = root / "sneaky.jsonl"
    try:
        link.symlink_to(outside)
    except OSError:
        pytest.skip("filesystem does not support symlinks")
    svc = ExtrapService(trace_root=root, cache=None)
    try:
        e = err(svc.predict, {"trace_path": "sneaky.jsonl"})
        assert e.status == 400
        assert "escapes" in e.message
    finally:
        svc.close(drain=False)


# -- trace-identity memo -----------------------------------------------------


@pytest.fixture
def own_trace(trace_root, tmp_path):
    """A service over a private copy of the trace (tests rewrite it)."""
    root = tmp_path / "own"
    root.mkdir()
    path = root / "t.jsonl"
    path.write_bytes((trace_root / "t.jsonl").read_bytes())
    svc = ExtrapService(trace_root=root, cache=ResultCache(tmp_path / "own-cache"))
    yield svc, path
    svc.close(drain=False)


@pytest.fixture
def count_reads(monkeypatch):
    calls = []

    def counting(path):
        calls.append(path)
        return read_trace(path)

    monkeypatch.setattr(service_module, "read_trace", counting)
    return calls


def test_cache_hit_does_not_read_the_trace(own_trace, count_reads):
    svc, _ = own_trace
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    assert svc.predict(body)["cached"] is False
    assert len(count_reads) == 1
    for _ in range(3):
        assert svc.predict(body)["cached"] is True
    assert len(count_reads) == 1
    # A miss on a remembered file takes the prepared trace from the memo.
    tweaked = {**body, "overrides": {"processor.mips_ratio": 0.5}}
    assert svc.predict(tweaked)["cached"] is False
    assert len(count_reads) == 1


def test_same_size_rewrite_with_restored_mtime_is_a_miss(own_trace):
    svc, path = own_trace
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    first = svc.predict(body)
    assert svc.predict(body)["cached"] is True
    before = path.stat()
    text = path.read_text()
    assert '"trace_mflops": 1.136' in text
    path.write_text(text.replace('"trace_mflops": 1.136', '"trace_mflops": 1.137'))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size
    assert path.stat().st_mtime_ns == before.st_mtime_ns
    after = svc.predict(body)
    assert after["cached"] is False
    assert after["trace"]["digest"] == read_trace(path).digest()
    assert after["trace"]["digest"] != first["trace"]["digest"]
    assert after["key"] != first["key"]


def test_deleted_trace_is_404_after_a_hit(own_trace):
    svc, path = own_trace
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    svc.predict(body)
    assert svc.predict(body)["cached"] is True
    path.unlink()
    assert err(svc.predict, body).status == 404


def test_identity_memo_is_bounded(own_trace, count_reads, monkeypatch):
    svc, path = own_trace
    (path.parent / "u.jsonl").write_bytes(path.read_bytes())
    monkeypatch.setattr(service_module, "TRACE_IDENTITY_ENTRIES", 1)
    for name in ("t.jsonl", "u.jsonl", "t.jsonl"):
        svc.predict({"trace_path": name, "preset": "cm5"})
    # u.jsonl evicted t.jsonl, so the last request (a cache hit: same
    # content) had to read t.jsonl again to learn its digest.
    assert [Path(p).name for p in count_reads] == ["t.jsonl", "u.jsonl", "t.jsonl"]
    assert len(svc._identities) == 1


@pytest.mark.parametrize("sample", [None, {"seed": 2}], ids=["full", "sampled"])
def test_known_identity_miss_takes_the_prepared_trace(
    own_trace, count_reads, sample
):
    svc, _ = own_trace
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    if sample is not None:
        body["sample"] = sample
    svc.predict(body)
    assert len(count_reads) == 1
    for hop in (0.5, 0.75):
        tweaked = {**body, "overrides": {"network.hop_time": hop}}
        assert svc.predict(tweaked)["cached"] is False
    assert len(count_reads) == 1
    # A digest the memo no longer holds is read and prepared again.
    PREPARED.clear()
    tweaked = {**body, "overrides": {"network.hop_time": 2.0}}
    assert svc.predict(tweaked)["cached"] is False
    assert len(count_reads) == 2


def test_rewritten_trace_is_answered_from_its_new_content(own_trace, tmp_path):
    svc, path = own_trace
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    old = svc.predict(body)
    assert main(["trace", "sort", "-n", "4", "-o", str(tmp_path / "s.jsonl")]) == 0
    path.write_bytes((tmp_path / "s.jsonl").read_bytes())
    overrides = {"network.hop_time": 1.5}
    new = svc.predict({**body, "overrides": overrides})
    trace = read_trace(path)
    params = apply_param_overrides(presets.by_name("cm5"), overrides)
    fresh = predict(trace, params)
    assert new["cached"] is False
    assert new["trace"]["digest"] == trace.digest() != old["trace"]["digest"]
    assert new["trace"]["program"] == "sort"
    assert new["report"] == predict_report(params, fresh)
    assert new["metrics"] == json.loads(json.dumps(result_record(fresh)))


@pytest.mark.parametrize(
    "extra",
    [{}, {"sample": {"seed": 1}}, {"diagnose": True}],
    ids=["full", "sampled", "diagnosed"],
)
def test_remembered_identity_gives_the_same_bytes(own_trace, extra):
    """Miss and hit answer with the key and trace fields read off the file."""
    svc, path = own_trace
    body = {"trace_path": "t.jsonl", "preset": "cm5", **extra}
    miss = svc.predict(body)
    hit = svc.predict(body)
    assert (miss["cached"], hit["cached"]) == (False, True)
    assert json.dumps({**miss, "cached": True}, sort_keys=True) == json.dumps(
        hit, sort_keys=True
    )
    trace = read_trace(path)
    mode = PredictMode(
        sample=validate_predict_request(body).sample,
        diagnose=bool(extra.get("diagnose")),
    )
    assert hit["key"] == result_key(
        trace.digest(),
        presets.by_name("cm5"),
        extra=mode.cache_extra(service_module.PREDICT_CACHE_EXTRA),
    )
    assert hit["trace"] == {
        "digest": trace.digest(),
        "program": trace.meta.program,
        "n_threads": trace.meta.n_threads,
    }


# -- sweeps and jobs ---------------------------------------------------------

SPEC = {
    "name": "demo",
    "preset": "cm5",
    "grid": {"network.comm_startup_time": [50.0, 100.0]},
}


def wait_for(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = service.job_status(job_id)
        if status["status"] in ("done", "failed", "cancelled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


def test_sweep_lifecycle(service):
    submitted = service.submit_sweep({"spec": SPEC, "trace_path": "t.jsonl"})
    assert submitted["status"] == "queued"
    assert submitted["points"] == 2
    job_id = submitted["job"]
    assert wait_for(service, job_id)["status"] == "done"
    result = service.job_result(job_id)
    artifact = result["result"]
    assert len(artifact["points"]) == 2
    assert artifact["counters"]["points_total"] == 2
    assert all("result" in p for p in artifact["points"])


def test_sweep_bad_spec_is_400(service):
    e = err(service.submit_sweep, {"spec": {"name": "x"}, "trace_path": "t.jsonl"})
    assert e.status == 400


def test_sweep_needs_trace_or_benchmark(service):
    e = err(service.submit_sweep, {"spec": SPEC})
    assert e.status == 400
    assert "benchmark" in e.message


def test_job_status_unknown_is_404(service):
    assert err(service.job_status, "j999999").status == 404
    assert err(service.job_result, "j999999").status == 404


def test_job_result_before_done_is_409(service):
    gate = threading.Event()
    job = service.jobs.submit("test", gate.wait)
    try:
        e = err(service.job_result, job.id)
        assert e.status == 409
    finally:
        gate.set()


def test_queue_overflow_sheds_503_with_retry_after(trace_root):
    """A saturated queue sheds with 503 (429 is the rate limiter's)."""
    from repro.serve.service import SHED_RETRY_AFTER_S

    svc = ExtrapService(trace_root=trace_root, cache=None, queue_depth=1, workers=1)
    try:
        gate = threading.Event()
        running = threading.Event()

        def blocker():
            running.set()
            gate.wait()

        svc.jobs.submit("test", blocker)
        assert running.wait(10), "worker never picked up the gate job"
        # The worker is busy; depth 1 admits exactly one queued sweep.
        svc.submit_sweep({"spec": SPEC, "trace_path": "t.jsonl"})
        e = err(svc.submit_sweep, {"spec": SPEC, "trace_path": "t.jsonl"})
        assert e.status == 503
        assert "retry" in e.message
        assert e.retry_after == SHED_RETRY_AFTER_S
        assert svc.stats()["admission"]["shed_total"] == 1
        gate.set()
    finally:
        svc.close(drain=False, timeout=10)


def test_failed_job_result_is_500_one_line(service):
    def boom():
        raise RuntimeError("sim exploded\nwith details")

    job = service.jobs.submit("test", boom)
    status = wait_for(service, job.id)
    assert status["status"] == "failed"
    assert status["error"]["type"] == "RuntimeError"
    e = err(service.job_result, job.id)
    assert e.status == 500
    assert "\n" not in e.message.replace("sim exploded\nwith details", "X")


# -- JobQueue ----------------------------------------------------------------


def test_job_queue_drains_on_close():
    q = JobQueue(depth=8, workers=2)
    done = []
    for i in range(6):
        q.submit("test", lambda i=i: done.append(i))
    q.close(drain=True, timeout=30)
    assert sorted(done) == list(range(6))
    with pytest.raises(QueueClosedError):
        q.submit("test", lambda: None)


def test_job_queue_nodrain_cancels_queued():
    q = JobQueue(depth=8, workers=1)
    gate = threading.Event()
    running = threading.Event()
    q.submit("test", lambda: (running.set(), gate.wait()))
    assert running.wait(10)
    queued = [q.submit("test", lambda: None) for _ in range(3)]
    gate.set()
    q.close(drain=False, timeout=30)
    counts = q.counts()
    assert counts["cancelled"] == 3
    assert all(q.get(j.id).status == "cancelled" for j in queued)


def test_job_queue_depth_limit():
    q = JobQueue(depth=2, workers=1)
    gate = threading.Event()
    running = threading.Event()
    q.submit("test", lambda: (running.set(), gate.wait()))
    assert running.wait(10)
    q.submit("test", lambda: None)
    q.submit("test", lambda: None)
    with pytest.raises(QueueFullError):
        q.submit("test", lambda: None)
    gate.set()
    q.close(drain=True, timeout=30)


def test_watchdog_fails_stalled_job_and_replaces_worker():
    """A wedged job turns into a JobStalled failure, not a dead worker."""
    q = JobQueue(depth=8, workers=1, job_budget=0.15)
    gate = threading.Event()
    try:
        stuck = q.submit("test", gate.wait)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and stuck.status != "failed":
            time.sleep(0.02)
        assert stuck.status == "failed"
        assert stuck.error_type == "JobStalled"
        assert "wall budget" in stuck.error
        # The replacement worker restores capacity: later jobs still run.
        after = q.submit("test", lambda: "alive")
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and after.status != "done":
            time.sleep(0.02)
        assert after.status == "done"
        assert after.result == "alive"
    finally:
        gate.set()  # let the abandoned thread retire
        q.close(drain=True, timeout=30)


def test_watchdog_late_result_is_dropped():
    """A job that finishes after being abandoned stays failed."""
    q = JobQueue(depth=8, workers=1, job_budget=0.15)
    gate = threading.Event()
    try:
        stuck = q.submit("test", lambda: (gate.wait(), "late")[1])
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and stuck.status != "failed":
            time.sleep(0.02)
        assert stuck.status == "failed"
        gate.set()  # the wedged fn now returns — too late
        time.sleep(0.2)
        assert stuck.status == "failed"
        assert stuck.result is None
    finally:
        gate.set()
        q.close(drain=True, timeout=30)


def test_watchdog_leaves_fast_jobs_alone():
    q = JobQueue(depth=8, workers=2, job_budget=5.0)
    try:
        jobs = [q.submit("test", lambda i=i: i) for i in range(4)]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(
            j.status != "done" for j in jobs
        ):
            time.sleep(0.02)
        assert [j.result for j in jobs] == [0, 1, 2, 3]
    finally:
        q.close(drain=True, timeout=30)


def test_job_budget_validation():
    with pytest.raises(ValueError):
        JobQueue(depth=1, workers=1, job_budget=0)


def test_stats_shape(service):
    stats = service.stats()
    assert stats["uptime_s"] >= 0
    assert set(stats["jobs"]) == {
        "queued", "running", "done", "failed", "cancelled", "interrupted",
        "queue_depth_limit", "run_seconds",
    }
    assert stats["admission"] == {
        "rate_limit": {"enabled": False},
        "rate_limited_total": 0,
        "shed_total": 0,
    }
    assert stats["journal"] == {"enabled": False}
    service.count_request("predict")
    assert service.stats()["requests"]["predict"] == 1
