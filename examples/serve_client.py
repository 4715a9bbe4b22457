#!/usr/bin/env python
"""Exercise a running `extrap serve` instance end to end.

Stdlib-only client: waits for the server to come up, runs a predict
twice (asserting the second is answered from the cache with an
identical payload), runs a diagnosed predict, submits a sweep job and
polls it to completion, scrapes `/v1/metrics`, validating the
Prometheus text exposition, and checks that a keep-alive connection
survives an error response.  Counters are checked as the change since
the client started, so it also passes against a server that has
already answered requests (a second run, say).  Exits nonzero on any
contract violation, which is what lets CI use it as the serve smoke
test.

Run:  extrap serve --port 8787 --trace-root traces/ &
      python examples/serve_client.py --port 8787 --trace grid.jsonl
"""

import argparse
import http.client
import json
import random
import re
import sys
import time

#: ``name{labels} value`` — the exposition sample-line grammar
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([0-9eE.+-]+|NaN|[+-]Inf)$"
)

#: statuses worth retrying: rate limited (429) and load shed (503)
RETRYABLE = (429, 503)

BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0
MAX_RETRIES = 5


class Client:
    """Tiny stdlib HTTP client with Retry-After-aware backoff.

    ``rng`` and ``sleep`` are injectable so tests can drive the backoff
    deterministically; a seeded ``random.Random`` makes the jitter
    sequence reproducible (``--backoff-seed``).
    """

    def __init__(self, host, port, rng=None, sleep=time.sleep):
        self.host, self.port = host, port
        self.rng = rng if rng is not None else random.Random()
        self.sleep = sleep

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(
                method, path, body=None if body is None else json.dumps(body)
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read()), dict(resp.getheaders())
        finally:
            conn.close()

    def backoff_delay(self, attempt, retry_after):
        """Seconds to wait before retry ``attempt`` (0-based).

        The server's ``Retry-After`` is the floor — retrying sooner is
        guaranteed futile — plus capped exponential jitter so a herd of
        clients told "retry in 2s" does not stampede back in lockstep.
        """
        jitter_cap = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** attempt))
        return retry_after + self.rng.uniform(0.0, jitter_cap)

    def request_retry(self, method, path, body=None, max_retries=MAX_RETRIES):
        """Like :meth:`request`, but waits out 429/503 responses.

        Honors the ``Retry-After`` header (falling back to the JSON
        error body's ``retry_after``), retries at most ``max_retries``
        times, and returns the final response either way.
        """
        for attempt in range(max_retries + 1):
            status, data, headers = self.request(method, path, body)
            if status not in RETRYABLE or attempt == max_retries:
                return status, data, headers
            retry_after = headers.get(
                "Retry-After", data.get("error", {}).get("retry_after", 1)
            )
            delay = self.backoff_delay(attempt, float(retry_after))
            print(
                f"got {status}, retry {attempt + 1}/{max_retries} "
                f"in {delay:.2f}s"
            )
            self.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def request_text(self, method, path):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            return (
                resp.status,
                resp.getheader("Content-Type", ""),
                resp.read().decode("utf-8"),
            )
        finally:
            conn.close()

    def wait_healthy(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, data, _ = self.request("GET", "/v1/healthz")
                if status == 200 and data.get("status") == "ok":
                    return data
            except OSError:
                pass
            time.sleep(0.2)
        raise SystemExit(f"server on :{self.port} never became healthy")


def sample_value(text, name):
    """The value of the exposition sample ``name`` (labels included),
    or 0 when the family has no such sample yet."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line[len(name) + 1:])
    return 0.0


PREDICTS = 'extrap_requests_total{endpoint="predict"}'
CACHE_HITS = "extrap_cache_hits_total"


def check(cond, message):
    if not cond:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=8787)
    ap.add_argument(
        "--trace",
        default="grid.jsonl",
        help="trace path relative to the server's --trace-root",
    )
    ap.add_argument("--preset", default="cm5")
    ap.add_argument(
        "--backoff-seed",
        type=int,
        default=None,
        help="seed the retry jitter RNG for reproducible backoff",
    )
    args = ap.parse_args(argv)
    client = Client(args.host, args.port, rng=random.Random(args.backoff_seed))

    health = client.wait_healthy()
    print(f"server healthy (version {health['version']})")
    status, _, text = client.request_text("GET", "/v1/metrics")
    check(status == 200, "metrics endpoint returns 200 before any request")
    predicts0 = sample_value(text, PREDICTS)
    hits0 = sample_value(text, CACHE_HITS)

    # Predict twice: the second answer must come from the cache, and
    # must be identical to the first.
    body = {"trace_path": args.trace, "preset": args.preset}
    status, first, _ = client.request_retry("POST", "/v1/predict", body)
    check(status == 200, f"predict returns 200 (got {status}: {first})")
    status, second, _ = client.request_retry("POST", "/v1/predict", body)
    check(status == 200, "repeat predict returns 200")
    check(second["cached"], "repeat predict is served from the cache")
    check(
        first["metrics"] == second["metrics"]
        and first["report"] == second["report"],
        "cached response is identical to the computed one",
    )
    print(
        f"predicted {first['metrics']['predicted_time_us']:.1f} us "
        f"for {first['trace']['program']} on {args.preset}"
    )

    # Diagnosed predict: the response carries the anomaly report.
    status, diagnosed, _ = client.request_retry(
        "POST", "/v1/predict", {**body, "diagnose": True}
    )
    check(status == 200, "diagnosed predict returns 200")
    check(
        diagnosed.get("diagnosis", {}).get("schema") == 1,
        "diagnosed predict carries the report",
    )
    check(
        diagnosed["key"] != first["key"],
        "diagnosed responses cache under their own key",
    )

    # Malformed input: one-line JSON error, with a spelling hint.
    status, err, _ = client.request("POST", "/v1/predict", {"trase_path": "x"})
    check(status == 400, "unknown field is a 400")
    check("did you mean" in err["error"]["message"], "error suggests a fix")

    # Async sweep: submit, poll, fetch.
    spec = {
        "name": "client-demo",
        "preset": args.preset,
        "grid": {"network.comm_startup_time": [50.0, 100.0, 200.0]},
    }
    status, job, _ = client.request_retry(
        "POST", "/v1/sweeps", {"spec": spec, "trace_path": args.trace}
    )
    check(status == 202, f"sweep submit returns 202 (got {status}: {job})")
    job_id = job["job"]
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        status, state, _ = client.request("GET", f"/v1/jobs/{job_id}")
        if state["status"] in ("done", "failed"):
            break
        time.sleep(0.2)
    check(state["status"] == "done", f"sweep job finishes (got {state})")
    status, result, _ = client.request("GET", f"/v1/jobs/{job_id}/result")
    check(status == 200, "finished job's result is fetchable")
    points = result["result"]["points"]
    check(len(points) == 3, "sweep artifact has every point")

    status, stats, _ = client.request("GET", "/v1/stats")
    cache = stats["cache"]
    print(
        f"stats: {stats['requests_total']} requests, "
        f"cache {cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses, "
        f"jobs done {stats['jobs']['done']}"
    )
    check(cache.get("hits", 0) >= 1, "cache shows at least one hit")

    # Prometheus scrape: valid text exposition of the same counters.
    status, ctype, text = client.request_text("GET", "/v1/metrics")
    check(status == 200, "metrics endpoint returns 200")
    check(ctype.startswith("text/plain"), "metrics content type is text")
    helped, typed = set(), set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
        elif line.startswith("# TYPE "):
            typed.add(line.split()[2])
        elif not SAMPLE_RE.match(line):
            raise SystemExit(f"FAIL: malformed sample line: {line!r}")
    check(helped == typed and helped, "every family has HELP and TYPE")
    check(
        sample_value(text, PREDICTS) - predicts0 == 3,
        "request counters survived the projection",
    )
    # This run's cache hits: the predicts answered from the cache and
    # the sweep points found there.
    hits = sum(r["cached"] for r in (first, second, diagnosed))
    hits += result["result"]["counters"]["cache_hits"]
    check(sample_value(text, CACHE_HITS) - hits0 == hits, "cache counters exposed")
    print(f"metrics: {len(helped)} families, exposition valid")

    # Keep-alive: an error sent before the request body was read must
    # not leave that body to be parsed as the connection's next request.
    conn = http.client.HTTPConnection(args.host, args.port, timeout=120)
    try:
        conn.request("POST", "/v1/nope", body=json.dumps(body))
        resp = conn.getresponse()
        resp.read()
        check(resp.status == 404, "unknown endpoint is a 404")
        sock = conn.sock
        tweaked = {**body, "overrides": {"processor.mips_ratio": 0.5}}
        answers = []
        for _ in range(2):
            conn.request("POST", "/v1/predict", body=json.dumps(tweaked))
            resp = conn.getresponse()
            raw = resp.read()
            json_reply = resp.getheader("Content-Type") == "application/json"
            answers.append((resp.status, json.loads(raw) if json_reply else raw))
        got = [(status, type(doc).__name__) for status, doc in answers]
        check(
            got == [(200, "dict"), (200, "dict")],
            f"both predicts after the error are JSON 200s (got {got})",
        )
        check(answers[1][1]["cached"], "the second is served from the cache")
        check(conn.sock is sock, "all three went over one connection")
    finally:
        conn.close()
    print("all serve checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
