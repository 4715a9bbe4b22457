"""stdlib HTTP front-end for :class:`~repro.serve.service.ExtrapService`.

Built on :class:`http.server.ThreadingHTTPServer` — no third-party web
framework — with one handler routing the six ``/v1`` endpoints:

======  ======================  ==========================================
method  path                    semantics
======  ======================  ==========================================
POST    ``/v1/predict``         synchronous extrapolation (memoized)
POST    ``/v1/sweeps``          enqueue an async sweep job
GET     ``/v1/jobs/<id>``       job status
GET     ``/v1/jobs/<id>/result``  finished job's artifact (409 until done)
GET     ``/v1/healthz``         liveness probe
GET     ``/v1/stats``           cache/queue/uptime counters
GET     ``/v1/metrics``         the same counters, Prometheus text format
======  ======================  ==========================================

Every response body is JSON except ``/v1/metrics``, which serves the
Prometheus text exposition format (the one endpoint scrapers consume
as plain text).  Failures follow one contract: a JSON
object ``{"error": {"status": N, "message": "<one line>"}}`` — a
traceback never crosses the wire (unexpected exceptions become a 500
with the exception's one-line summary; the full traceback goes to the
server log).

Keep-alive: each response leaves in one write (a buffered ``wfile``
plus ``TCP_NODELAY``), so no response waits on the client's delayed
ACK; and a response sent before the request body was read drains that
body or closes the connection, so the next request always parses.

Admission control: with ``--rate-limit``, every request (except
liveness probes and metric scrapes, :data:`RATE_LIMIT_EXEMPT`) first
spends a token from the caller's per-address bucket; an empty bucket is
an immediate 429 with a ``Retry-After`` header, checked *before* any
routing or body parsing so a hot client cannot burn server work.  A
full job queue is a different failure — the server (not the client) is
saturated — and sheds with 503 + ``Retry-After`` instead.

Shutdown: :func:`run_server` runs ``serve_forever`` on a worker thread
and parks the main thread on an event that SIGTERM/SIGINT set.  Calling
``HTTPServer.shutdown()`` from inside a signal handler on the serving
thread would deadlock (it joins the serve loop it interrupted), which
is why the signal handler only sets the event.  On wake the listener is
closed first (no new connections), then the job queue drains — bounded
by ``--drain-timeout``; jobs still unfinished at the deadline are
journaled ``interrupted`` for restart recovery — then the process
exits 0 either way, so a supervisor restart is always safe.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.serve.metrics import METRICS_CONTENT_TYPE, render_metrics
from repro.serve.ratelimit import retry_after_header
from repro.serve.schema import ApiError
from repro.serve.service import ExtrapService
from repro.sweep.cache import ResultCache
from repro.util.log import get_logger

log = get_logger("serve.http")
access_log = get_logger("serve.access")

#: largest accepted request body, bytes (an inline trace at the event
#: cap is far below this; anything bigger is abuse or a mistake)
MAX_BODY_BYTES = 64 * 1024 * 1024

#: endpoints the per-client rate limiter never touches: liveness probes
#: and metric scrapes must keep working while a client is throttled,
#: or the operator goes blind exactly when admission control engages
RATE_LIMIT_EXEMPT = ("/v1/healthz", "/v1/metrics")

#: default bound on the SIGTERM drain, seconds — a stalled job must
#: not hang shutdown forever; past this, unfinished jobs are journaled
#: ``interrupted`` and the process exits 0 for the supervisor to restart
DEFAULT_DRAIN_TIMEOUT_S = 30.0


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the service; owns the wire contract only."""

    server: "ExtrapServer"
    protocol_version = "HTTP/1.1"
    # A buffered wfile sends the headers and a small body in one write;
    # unbuffered, the body would wait ~40 ms for the client's delayed
    # ACK of the headers (Nagle) on every keep-alive response.  No
    # Nagle at all, so a body larger than the buffer cannot stall either.
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    @property
    def service(self) -> ExtrapService:
        return self.server.service

    def handle_expect_100(self) -> bool:
        # The interim response must leave now: the client holds the
        # body back until it sees it.
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        *,
        retry_after: Optional[int] = None,
    ) -> None:
        """Headers and body, flushed as one write."""
        self._settle_body()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        *,
        retry_after: Optional[int] = None,
    ) -> None:
        body = (json.dumps(payload) + "\n").encode("utf-8")
        self._send(status, body, "application/json", retry_after=retry_after)

    def _send_error_json(
        self, status: int, message: str, *, retry_after: Optional[int] = None
    ) -> None:
        error: Dict[str, Any] = {"status": status, "message": message}
        if retry_after is not None:
            # Mirrored into the body so clients that cannot see headers
            # (and tests asserting exact bytes) get the same number.
            error["retry_after"] = retry_after
        self._send_json(status, {"error": error}, retry_after=retry_after)

    def _settle_body(self) -> None:
        """Leave the connection ready for its next request.

        A response sent before :meth:`_read_body` ran (404, 405, 429,
        413, a bad ``Content-Length``) would leave the request body in
        ``rfile``, and the next request on the keep-alive connection
        would be parsed from it.  A body within :data:`MAX_BODY_BYTES`
        is read and dropped; one that is too large, or whose length is
        unknown, closes the connection after this response instead.
        """
        if self._body_read:
            return
        self._body_read = True
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
            return
        try:
            remaining = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            remaining = -1
        if not 0 <= remaining <= MAX_BODY_BYTES:
            self.close_connection = True
            return
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 1 << 16))
            if not chunk:
                self.close_connection = True
                return
            remaining -= len(chunk)

    def _read_body(self) -> Any:
        length_header = self.headers.get("Content-Length")
        try:
            length = int(length_header or 0)
        except ValueError:
            raise ApiError(400, "bad Content-Length header") from None
        if length <= 0:
            raise ApiError(400, "request body required (JSON object)")
        if length > MAX_BODY_BYTES:
            raise ApiError(
                413, f"request body too large ({length} bytes, limit {MAX_BODY_BYTES})"
            )
        raw = self.rfile.read(length)
        self._body_read = True
        try:
            return json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}") from None

    # -- dispatch ------------------------------------------------------------

    def _route(self, method: str) -> Tuple[str, Any]:
        """Resolve the request to (endpoint-name, response payload).

        The payload is a JSON-safe dict for every endpoint except
        ``metrics``, whose payload is the pre-rendered exposition text.
        """
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        service = self.service
        self._admit(path)
        if method == "GET":
            if path == "/v1/healthz":
                return "healthz", service.healthz()
            if path == "/v1/stats":
                return "stats", service.stats()
            if path == "/v1/metrics":
                return "metrics", render_metrics(service.stats())
            if path.startswith("/v1/jobs/"):
                rest = path[len("/v1/jobs/") :]
                if rest.endswith("/result"):
                    job_id = rest[: -len("/result")]
                    return "job_result", service.job_result(job_id)
                if "/" not in rest and rest:
                    return "job_status", service.job_status(rest)
            raise ApiError(404, f"no such endpoint: GET {path}")
        if method == "POST":
            if path == "/v1/predict":
                return "predict", service.predict(self._read_body())
            if path == "/v1/sweeps":
                return "sweeps", service.submit_sweep(self._read_body())
            raise ApiError(404, f"no such endpoint: POST {path}")
        raise ApiError(405, f"method {method} not supported")

    def _admit(self, path: str) -> None:
        """Per-client token-bucket admission (429 before any work).

        Rate limiting outranks every other failure mode — a client over
        its budget gets 429 even when the queue is also full (which
        would otherwise shed with 503): the 429 names the party that
        must slow down.
        """
        limiter = self.service.limiter
        if limiter is None or path in RATE_LIMIT_EXEMPT:
            return
        allowed, retry_after_s = limiter.allow(self.client_address[0])
        if allowed:
            return
        self.service.count_rate_limited()
        retry_after = retry_after_header(retry_after_s)
        raise ApiError(
            429,
            f"rate limit exceeded ({limiter.rate:g} req/s, burst "
            f"{limiter.burst}); retry in {retry_after}s",
            retry_after=retry_after,
        )

    def _handle(self, method: str) -> None:
        t0 = time.monotonic()
        status = 500
        self._body_read = False
        try:
            endpoint, payload = self._route(method)
            self.service.count_request(endpoint)
            status = 202 if endpoint == "sweeps" else 200
            if isinstance(payload, str):
                self._send(status, payload.encode("utf-8"), METRICS_CONTENT_TYPE)
            else:
                self._send_json(status, payload)
        except ApiError as exc:
            status = exc.status
            self.service.count_request("error")
            self._send_error_json(
                exc.status, exc.message, retry_after=exc.retry_after
            )
        except (BrokenPipeError, ConnectionResetError):
            status = 0  # client went away mid-response; nothing to send
        except Exception as exc:  # noqa: BLE001 — wire boundary
            status = 500
            log.exception("unhandled error serving %s %s", method, self.path)
            try:
                self._send_error_json(
                    500, f"internal error: {type(exc).__name__}: {exc}"
                )
            except OSError:
                pass
        finally:
            access_log.info(
                '%s "%s %s" %s %.1fms',
                self.client_address[0],
                method,
                self.path,
                status if status else "-",
                (time.monotonic() - t0) * 1e3,
            )

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._handle("POST")

    # Unsupported methods get the same JSON 405 contract instead of
    # http.server's default HTML 501 page.
    def do_PUT(self) -> None:  # noqa: N802
        self._handle("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def do_PATCH(self) -> None:  # noqa: N802
        self._handle("PATCH")

    def do_HEAD(self) -> None:  # noqa: N802
        self._handle("HEAD")

    def log_message(self, format: str, *args: Any) -> None:
        """Default stderr chatter → structured logger (debug level)."""
        log.debug("%s %s", self.client_address[0], format % args)


class ExtrapServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`ExtrapService`."""

    daemon_threads = True  # in-flight HTTP threads must not block exit
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: ExtrapService):
        super().__init__(address, _Handler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    def close(self, *, drain: bool = True) -> None:
        """Stop the listener, then drain (or cancel) queued jobs."""
        self.server_close()
        self.service.close(drain=drain)


def start_server(
    service: ExtrapService, *, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ExtrapServer, threading.Thread]:
    """Bind and serve on a daemon thread (tests, benches, embedding).

    Returns the server (``server.port`` is the real bound port — pass
    ``port=0`` for an ephemeral one) and its serving thread.  Stop with
    ``server.shutdown()`` then ``server.close()``.
    """
    server = ExtrapServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="serve-http", daemon=True
    )
    thread.start()
    return server, thread


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    trace_root: "str | Path" = ".",
    cache: Optional[ResultCache] = None,
    queue_depth: int = 16,
    workers: int = 1,
    sweep_jobs: int = 1,
    max_wall_budget: Optional[float] = None,
    state_dir: "str | Path | None" = None,
    rate_limit: Optional[float] = None,
    rate_burst: Optional[int] = None,
    job_budget: Optional[float] = None,
    drain_timeout: Optional[float] = DEFAULT_DRAIN_TIMEOUT_S,
) -> int:
    """Serve until SIGTERM/SIGINT; drain the job queue; return 0.

    The CLI entry point behind ``extrap serve``.  Prints the bound URL
    on stdout once listening (machine-parsable: the last token is the
    URL, resolving ``port=0`` to the real port).  With ``state_dir``,
    unfinished jobs are journaled and recovered on the next start —
    including jobs a bounded drain (``drain_timeout``) had to abandon,
    which is why a drain timeout still exits 0.
    """
    try:
        service = ExtrapService(
            trace_root=trace_root,
            cache=cache,
            queue_depth=queue_depth,
            workers=workers,
            sweep_jobs=sweep_jobs,
            max_wall_budget=max_wall_budget,
            state_dir=state_dir,
            rate_limit=rate_limit,
            rate_burst=rate_burst,
            job_budget=job_budget,
            drain_timeout=drain_timeout,
        )
    except OSError as exc:
        print(f"extrap: error: cannot use state dir {state_dir}: {exc}", flush=True)
        return 1
    if service.recovered_total:
        print(
            f"recovered {service.recovered_total} unfinished job(s) "
            f"from {service.journal.path}",
            flush=True,
        )
    try:
        server, thread = start_server(service, host=host, port=port)
    except OSError as exc:
        print(f"extrap: error: cannot bind {host}:{port}: {exc}", flush=True)
        service.close(drain=False)
        return 1

    stop = threading.Event()
    received: Dict[str, Any] = {"signal": None}

    def _on_signal(signum: int, frame: Any) -> None:
        received["signal"] = signal.Signals(signum).name
        stop.set()

    previous = {
        sig: signal.signal(sig, _on_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(f"serving on http://{host}:{server.port}", flush=True)
    log.info(
        "listening on %s:%d (trace_root=%s cache=%s queue_depth=%d)",
        host,
        server.port,
        Path(trace_root).resolve(),
        cache.root if cache is not None else "off",
        queue_depth,
    )
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    log.info("%s received; draining job queue", received["signal"] or "stop")
    server.shutdown()  # safe here: we are not on the serve_forever thread
    thread.join()
    server.server_close()  # listener down first: no new connections
    drained = service.close(drain=True)
    if not drained:
        log.warning(
            "drain timed out; interrupted jobs were journaled and will "
            "be recovered on restart"
        )
    log.info("shutdown complete")
    return 0
