"""Serve HTTP layer: wire contract, concurrency, graceful shutdown."""

import http.client
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.serve import ExtrapService, start_server
from repro.sweep.cache import ResultCache

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def trace_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-http-traces")
    assert main(["trace", "embar", "-n", "4", "-o", str(root / "t.jsonl")]) == 0
    return root


@pytest.fixture
def server(trace_root, tmp_path):
    service = ExtrapService(
        trace_root=trace_root,
        cache=ResultCache(tmp_path / "cache"),
        queue_depth=2,
        workers=1,
    )
    srv, thread = start_server(service, port=0)
    yield srv
    srv.shutdown()
    thread.join(10)
    srv.close(drain=False)


def request(server, method, path, body=None, raw=None):
    status, data, _headers = request_full(server, method, path, body, raw)
    return status, data


def request_full(server, method, path, body=None, raw=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    payload = raw if raw is not None else (
        json.dumps(body) if body is not None else None
    )
    conn.request(method, path, body=payload)
    resp = conn.getresponse()
    data = json.loads(resp.read())
    headers = dict(resp.getheaders())
    conn.close()
    return resp.status, data, headers


# -- happy paths -------------------------------------------------------------


def test_healthz(server):
    status, data = request(server, "GET", "/v1/healthz")
    assert status == 200
    assert data["status"] == "ok"


def test_predict_and_cache_over_http(server):
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    s1, first = request(server, "POST", "/v1/predict", body)
    s2, second = request(server, "POST", "/v1/predict", body)
    assert (s1, s2) == (200, 200)
    assert first["cached"] is False and second["cached"] is True
    assert first["metrics"] == second["metrics"]
    assert first["report"] == second["report"]
    status, stats = request(server, "GET", "/v1/stats")
    assert status == 200
    assert stats["cache"]["hits"] == 1
    assert stats["requests"]["predict"] == 2


def test_sweep_submit_poll_fetch(server):
    spec = {
        "name": "httpdemo",
        "preset": "cm5",
        "grid": {"network.comm_startup_time": [50.0, 100.0]},
    }
    status, job = request(
        server, "POST", "/v1/sweeps", {"spec": spec, "trace_path": "t.jsonl"}
    )
    assert status == 202
    assert job["status"] == "queued"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        status, st = request(server, "GET", f"/v1/jobs/{job['job']}")
        assert status == 200
        if st["status"] in ("done", "failed"):
            break
        time.sleep(0.02)
    assert st["status"] == "done"
    status, res = request(server, "GET", f"/v1/jobs/{job['job']}/result")
    assert status == 200
    assert len(res["result"]["points"]) == 2


# -- error contract ----------------------------------------------------------


def test_error_responses_are_json_one_liners(server):
    checks = [
        ("GET", "/v1/nope", None, None, 404),
        ("GET", "/v1/jobs/j999999", None, None, 404),
        ("GET", "/v1/jobs/j999999/result", None, None, 404),
        ("PUT", "/v1/predict", None, None, 405),
        ("POST", "/v1/predict", None, None, 400),  # no body
        ("POST", "/v1/predict", None, "{not json", 400),
        ("POST", "/v1/predict", {"trase_path": "t.jsonl"}, None, 400),
        ("POST", "/v1/predict", {"trace_path": "../escape"}, None, 400),
        ("POST", "/v1/predict", {"trace_path": "missing.jsonl"}, None, 404),
        ("POST", "/v1/sweeps", {"spec": {}}, None, 400),
    ]
    for method, path, body, raw, expected in checks:
        status, data = request(server, method, path, body, raw)
        assert status == expected, (method, path, status)
        assert data["error"]["status"] == expected
        message = data["error"]["message"]
        assert "\n" not in message
        assert "Traceback" not in message


# -- keep-alive --------------------------------------------------------------


def exchange(conn, method, path, body=None):
    conn.request(method, path, body=None if body is None else json.dumps(body))
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def test_early_errors_keep_the_connection_usable(trace_root):
    """A 404 or 429 sent before the body was read must not poison the
    next request on the same connection."""
    service = ExtrapService(
        trace_root=trace_root, cache=None, rate_limit=0.001, rate_burst=1
    )
    srv, thread = start_server(service, port=0)
    conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60)
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    try:
        assert exchange(conn, "POST", "/v1/nope", body)[0] == 404
        sock = conn.sock
        assert exchange(conn, "GET", "/v1/healthz")[1]["status"] == "ok"
        status, data = exchange(conn, "POST", "/v1/predict", body)
        assert status == 429 and data["error"]["status"] == 429
        assert exchange(conn, "GET", "/v1/healthz")[1]["status"] == "ok"
        assert conn.sock is sock  # one connection throughout
    finally:
        conn.close()
        srv.shutdown()
        thread.join(10)
        srv.close(drain=False)


def test_oversized_body_closes_the_connection(server):
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(
            b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999999\r\n\r\n"
        )
        reply = b""
        while chunk := sock.recv(65536):  # the server hangs up after replying
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"\r\nConnection: close" in head
    assert json.loads(payload)["error"]["status"] == 413


def test_expect_100_continue_is_sent_before_the_body(server):
    body = json.dumps({"trace_path": "t.jsonl", "preset": "cm5"}).encode()
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.sendall(
            b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        )
        assert sock.recv(65536).startswith(b"HTTP/1.1 100 ")
        sock.sendall(body)
        reply = sock.recv(65536)
    assert reply.startswith(b"HTTP/1.1 200 ")


def test_keep_alive_hits_take_about_a_millisecond(server):
    """Warm hits over one connection; a delayed-ACK stall costs ~40 ms each."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    try:
        assert exchange(conn, "POST", "/v1/predict", body)[0] == 200
        latencies = []
        for _ in range(9):
            t0 = time.perf_counter()
            status, data = exchange(conn, "POST", "/v1/predict", body)
            latencies.append(time.perf_counter() - t0)
            assert status == 200 and data["cached"] is True
    finally:
        conn.close()
    assert statistics.median(latencies) < 0.020, latencies


def test_queue_overflow_sheds_503_over_http(server, trace_root):
    """Saturation is a 503 shed with a deterministic Retry-After."""
    from repro.serve.service import SHED_RETRY_AFTER_S

    service = server.service
    gate = threading.Event()
    running = threading.Event()
    service.jobs.submit("test", lambda: (running.set(), gate.wait()))
    assert running.wait(10)
    try:
        spec = {
            "name": "full",
            "preset": "cm5",
            "grid": {"network.comm_startup_time": [50.0]},
        }
        body = {"spec": spec, "trace_path": "t.jsonl"}
        statuses = []
        for _ in range(service.jobs.depth + 1):
            status, data, headers = request_full(server, "POST", "/v1/sweeps", body)
            statuses.append(status)
        assert statuses[:-1] == [202] * service.jobs.depth
        assert statuses[-1] == 503
        assert headers["Retry-After"] == str(SHED_RETRY_AFTER_S)
        assert data["error"]["retry_after"] == SHED_RETRY_AFTER_S
    finally:
        gate.set()


def test_rate_limit_429_over_http(trace_root, tmp_path):
    """Over-budget clients get 429 + Retry-After; healthz stays exempt."""
    service = ExtrapService(
        trace_root=trace_root,
        cache=None,
        rate_limit=0.001,  # one token every ~17 minutes: burst then stop
        rate_burst=2,
    )
    srv, thread = start_server(service, port=0)
    try:
        for _ in range(2):
            status, _ = request(srv, "GET", "/v1/stats")
            assert status == 200
        status, data, headers = request_full(srv, "GET", "/v1/stats")
        assert status == 429
        assert "rate limit exceeded" in data["error"]["message"]
        retry_after = int(headers["Retry-After"])
        assert retry_after >= 1
        assert data["error"]["retry_after"] == retry_after
        # Liveness and metric scrapes must survive a throttled client.
        assert request(srv, "GET", "/v1/healthz")[0] == 200
        conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=60)
        conn.request("GET", "/v1/metrics")
        resp = conn.getresponse()
        text = resp.read().decode("utf-8")
        conn.close()
        assert resp.status == 200
        assert 'serve_rate_limited_total{code="429"} 1' in text
        assert service.stats()["admission"]["rate_limited_total"] == 1
    finally:
        srv.shutdown()
        thread.join(10)
        srv.close(drain=False)


def test_concurrent_clients_identical_responses(server):
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    request(server, "POST", "/v1/predict", body)  # warm the cache
    results = []
    errors = []

    def hammer():
        try:
            for _ in range(4):
                status, data = request(server, "POST", "/v1/predict", body)
                results.append((status, data["metrics"], data["report"]))
        except Exception as exc:  # pragma: no cover — failure detail
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors
    assert len(results) == 32
    assert len({(s, json.dumps(m, sort_keys=True), r) for s, m, r in results}) == 1


# -- process-level graceful shutdown -----------------------------------------


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT])
def test_signal_drains_and_exits_zero(trace_root, tmp_path, sig):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--port", "0",
            "--trace-root", str(trace_root),
            "--cache-dir", str(tmp_path / "cache"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        assert match, f"no URL announced: {line!r}"
        port = int(match.group(1))
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request(
            "POST", "/v1/predict", body=json.dumps({"trace_path": "t.jsonl"})
        )
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["cached"] is False
        conn.close()
        proc.send_signal(sig)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10)
