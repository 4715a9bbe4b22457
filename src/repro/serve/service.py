"""The serve API's domain logic, HTTP-free.

:class:`ExtrapService` implements every endpoint as a plain method
taking a parsed JSON body and returning a JSON-safe dict (raising
:class:`~repro.serve.schema.ApiError` for the 4xx/5xx contract), so the
whole API is unit-testable without opening a socket; the HTTP layer
(:mod:`repro.serve.http`) is a thin router over it.

Prediction results are memoized through the same content-addressed
:class:`~repro.sweep.cache.ResultCache` the sweep engine uses — keyed
by ``Trace.digest()`` + canonical resolved parameters — so a repeated
predict is answered without simulating.  Predict keys carry
:data:`PREDICT_CACHE_EXTRA`, so they never collide with (or get
answered by) a sweep's entry for the same point: the two store
differently shaped payloads.  Cached and fresh responses
are byte-identical: fresh payloads round-trip through JSON before they
leave, exactly like the sweep executor.  The digest of a ``trace_path``
file is remembered under the file's stat identity (path, device, inode,
size, mtime, ctime), so a cache hit never reads the trace.  A miss
takes the trace, prepared (translated, and planned per sampling config),
from the process-wide memo :data:`repro.core.memo.PREPARED` under that
digest and only simulates; a digest the memo no longer holds is read,
re-digested and keyed by the fresh digest.

Hardening notes (the service is a long-running process fed by
untrusted clients):

* ``trace_path`` is resolved strictly inside ``trace_root`` — absolute
  paths and ``..`` escapes are 400s, and symlinks cannot escape either
  (the resolved real path must stay under the root);
* inline traces are size-capped (:data:`repro.serve.schema.MAX_INLINE_EVENTS`);
* per-request wall budgets are clamped to the server's configured
  maximum, so no request can opt out of the watchdog;
* sweep submissions are bounded by the job queue's depth limit (shed
  with 503 + ``Retry-After`` on overflow — 429 is reserved for the
  per-client rate limiter, which the HTTP layer checks first) and their
  parallelism is clamped to the server's ``sweep_jobs``.

Durability (opt-in via ``state_dir``): every accepted sweep job is
recorded in an append-only, fsync'd journal *before* the client hears
202, and every lifecycle transition after it.  On startup the journal
is replayed: jobs that were queued, running, or interrupted when the
last process died are rebuilt from their journaled request bodies and
re-enqueued under their original ids — a crashed server's clients keep
polling the same job URL and eventually get the same bytes, because the
points a job completed before the crash are memoized in the shared
``ResultCache``.  Without ``state_dir`` nothing is journaled and the
service behaves exactly as before.
"""

from __future__ import annotations

import json
import os
import stat
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro import __version__
from repro.core import presets
from repro.core.memo import PREPARED
from repro.core.predict import PredictMode, predict, predict_report
from repro.des import SimulationStalled
from repro.metrics import result_record
# unused here: e2ebench/spans.py wraps this name when timing the report layer
from repro.metrics.report import predict_summary  # noqa: F401
from repro.serve.jobs import Job, JobQueue, QueueClosedError, QueueFullError
from repro.serve.journal import JobJournal, request_digest
from repro.serve.ratelimit import RateLimiter
from repro.serve.schema import (
    ApiError,
    PredictRequest,
    SweepRequest,
    bad_request,
    validate_predict_request,
    validate_sweep_request,
)
from repro.sweep.cache import ResultCache, result_key
from repro.sweep.executor import run_sweep
from repro.sweep.spec import SweepSpec, apply_param_overrides
from repro.trace import TraceReadError, read_trace
from repro.trace.events import TraceEvent
from repro.trace.trace import Trace, TraceMeta
from repro.util.log import get_logger

log = get_logger("serve")

#: cache-key namespace for predict responses (bump when the payload
#: stored under a key changes shape)
PREDICT_CACHE_EXTRA = {"serve": "predict", "payload": 1}

#: deterministic ``Retry-After`` seconds on a 503 shed (queue full)
SHED_RETRY_AFTER_S = 2

#: deterministic ``Retry-After`` seconds on a 503 while draining — the
#: supervisor restart that follows a drain takes longer than a shed
DRAIN_RETRY_AFTER_S = 5

#: chaos-harness hook (test-only): seconds each sweep job sleeps before
#: doing real work, widening the SIGKILL-mid-job window for the
#: crash-recovery tests; unset/0 in production means zero overhead
CHAOS_SLOW_JOB_ENV = "EXTRAP_SERVE_CHAOS_SLOW_JOB_S"

#: trace files whose identity the service remembers (the least recently
#: used is dropped first); an entry is a stat tuple and a digest
TRACE_IDENTITY_ENTRIES = 1024

#: what a predict response says about its trace: (digest, program, n_threads)
TraceIdentity = Tuple[str, str, int]

#: a trace file's (real path, st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns)
StatId = Tuple[str, int, int, int, int, int]


def _identity(trace: Trace) -> TraceIdentity:
    return trace.digest(), trace.meta.program, trace.meta.n_threads


class ExtrapService:
    """Endpoint implementations + shared state (cache, jobs, counters)."""

    def __init__(
        self,
        *,
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
        drain_timeout: Optional[float] = None,
        clock: Optional[Any] = None,
    ):
        self.trace_root = Path(trace_root).resolve()
        self.cache = cache
        self.sweep_jobs = max(1, int(sweep_jobs))
        self.max_wall_budget = max_wall_budget
        self.drain_timeout = drain_timeout
        self.limiter: Optional[RateLimiter] = None
        if rate_limit is not None:
            limiter_kwargs: Dict[str, Any] = {}
            if clock is not None:
                limiter_kwargs["clock"] = clock
            self.limiter = RateLimiter(rate_limit, rate_burst, **limiter_kwargs)
        try:
            self._chaos_slow_s = float(os.environ.get(CHAOS_SLOW_JOB_ENV) or 0.0)
        except ValueError:
            self._chaos_slow_s = 0.0
        self.journal = JobJournal(state_dir) if state_dir is not None else None
        self.recovered_total = 0
        self._last_replay: Optional[Dict[str, Any]] = None
        self.jobs = JobQueue(
            depth=queue_depth,
            workers=workers,
            observer=self._journal_transition if self.journal is not None else None,
            job_budget=job_budget,
        )
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._rate_limited_total = 0
        self._shed_total = 0
        # stat identity of a trace file -> its TraceIdentity (under _lock)
        self._identities: "OrderedDict[StatId, TraceIdentity]" = OrderedDict()
        if self.journal is not None:
            self._recover()

    # -- bookkeeping ---------------------------------------------------------

    def count_request(self, endpoint: str) -> None:
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def count_rate_limited(self) -> None:
        with self._lock:
            self._rate_limited_total += 1

    def count_shed(self) -> None:
        with self._lock:
            self._shed_total += 1

    def uptime_s(self) -> float:
        return time.monotonic() - self._t0

    # -- durability ----------------------------------------------------------

    def _journal_transition(self, job: Job) -> None:
        """JobQueue observer → journal records (queue lock held).

        Only durable jobs (those carrying a rebuildable request payload)
        are journaled; transitions of ephemeral in-process jobs would
        replay as orphans and are skipped entirely.
        """
        journal = self.journal
        if journal is None or not job.durable:
            return
        if job.status == "queued":
            if job.recovered:
                return  # the compacted journal already holds its submit
            journal.append(
                "submit",
                job.id,
                kind=job.kind,
                label=job.label,
                request=job.payload,
                digest=job.digest,
            )
        elif job.status == "running":
            journal.append("start", job.id)
        elif job.status == "done":
            journal.append("done", job.id)
        elif job.status == "failed":
            journal.append(
                "failed", job.id, error_type=job.error_type, error=job.error
            )
        elif job.status in ("cancelled", "interrupted"):
            journal.append(job.status, job.id)

    def _recover(self) -> None:
        """Replay the journal, compact it, re-enqueue unfinished jobs."""
        assert self.journal is not None
        replay = self.journal.replay()
        self._last_replay = replay.as_dict()
        # Compact *first* (atomically): a crash during recovery leaves a
        # journal that still names every pending job.
        self.journal.reset(keep=replay.pending)
        for record in replay.pending:
            self._resubmit(record)
        self.recovered_total = len(replay.pending)
        if replay.pending or replay.corrupt or replay.truncated_tail:
            log.info(
                "journal replay: %d record(s), %d job(s) recovered, "
                "%d corrupt quarantined, torn tail=%s",
                replay.entries,
                len(replay.pending),
                replay.corrupt,
                replay.truncated_tail,
            )

    def _resubmit(self, record: Mapping[str, Any]) -> None:
        """Rebuild one journaled job and re-enqueue it under its old id.

        A request that no longer validates (the trace file vanished, a
        preset was renamed) becomes a job that fails with that message —
        visible to the polling client — rather than a recovery crash.
        """
        job_id = str(record["job"])
        request = dict(record["request"])
        kind = str(record.get("kind", "sweep"))
        label = str(record.get("label", ""))
        try:
            if kind != "sweep":
                raise ApiError(500, f"cannot recover a job of kind {kind!r}")
            fn, spec = self._build_sweep_fn(request)
            label = f"{spec.name} ({len(spec)} points)"
        except ApiError as exc:
            message = f"recovery failed: {exc.message}"

            def fn(message: str = message) -> None:
                raise RuntimeError(message)

        self.jobs.submit(
            kind,
            fn,
            label=label,
            job_id=job_id,
            payload=request,
            digest=str(record.get("digest", "")),
            recovered=True,
            force=True,
        )

    # -- trace loading -------------------------------------------------------

    def _resolve_trace_path(self, rel: str) -> Tuple[Path, StatId]:
        """``trace_path`` → (real path inside the trace root, stat identity).

        Absolute paths, ``..`` escapes and symlinks leading out of the
        root are 400s; a path that is not a regular file is a 404.  The
        stat identity changes whenever the file is replaced or written.
        """
        candidate = Path(rel)
        if candidate.is_absolute():
            raise bad_request(
                f"'trace_path' must be relative to the server trace root, "
                f"got absolute path {rel!r}"
            )
        resolved = (self.trace_root / candidate).resolve()
        if resolved != self.trace_root and self.trace_root not in resolved.parents:
            raise bad_request(
                f"'trace_path' {rel!r} escapes the server trace root"
            )
        try:
            st = os.stat(resolved)
        except OSError:
            st = None
        if st is None or not stat.S_ISREG(st.st_mode):
            raise ApiError(404, f"trace file not found: {rel}")
        stat_id = (
            str(resolved), st.st_dev, st.st_ino, st.st_size,
            st.st_mtime_ns, st.st_ctime_ns,
        )
        return resolved, stat_id

    @staticmethod
    def _read_trace_file(path: Path, rel: str) -> Trace:
        try:
            return read_trace(path)
        except (TraceReadError, ValueError) as exc:
            raise bad_request(str(exc)) from None
        except OSError as exc:
            raise bad_request(f"cannot read trace {rel}: {exc}") from None

    def _recall_identity(self, stat_id: StatId) -> Optional[TraceIdentity]:
        with self._lock:
            identity = self._identities.get(stat_id)
            if identity is not None:
                self._identities.move_to_end(stat_id)
            return identity

    def _read_identified(
        self, path: Path, rel: str, stat_id: StatId
    ) -> Tuple[Trace, TraceIdentity]:
        """Read a trace file and memoize its identity under ``stat_id``."""
        trace = self._read_trace_file(path, rel)
        identity = _identity(trace)
        with self._lock:
            self._identities[stat_id] = identity
            self._identities.move_to_end(stat_id)
            if len(self._identities) > TRACE_IDENTITY_ENTRIES:
                self._identities.popitem(last=False)
        return trace, identity

    @staticmethod
    def _trace_from_inline(inline: Mapping[str, Any]) -> Trace:
        try:
            meta = TraceMeta.from_dict(inline["meta"])
        except (KeyError, TypeError, ValueError) as exc:
            raise bad_request(f"bad 'trace.meta': {exc}") from None
        events = []
        for i, ev in enumerate(inline["events"]):
            if not isinstance(ev, Mapping):
                raise bad_request(
                    f"bad 'trace.events[{i}]': expected an object, got "
                    f"{type(ev).__name__}"
                )
            try:
                events.append(TraceEvent.from_dict(ev))
            except (KeyError, TypeError, ValueError) as exc:
                raise bad_request(f"bad 'trace.events[{i}]': {exc}") from None
        return Trace(meta, events)

    def _load_trace(self, req: "PredictRequest | SweepRequest") -> Trace:
        if req.trace_inline is not None:
            return self._trace_from_inline(req.trace_inline)
        assert req.trace_path is not None
        path, _ = self._resolve_trace_path(req.trace_path)
        return self._read_trace_file(path, req.trace_path)

    def _clamp_budget(self, requested: Optional[float]) -> Optional[float]:
        if self.max_wall_budget is None:
            return requested
        if requested is None:
            return self.max_wall_budget
        return min(requested, self.max_wall_budget)

    # -- endpoints -----------------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        return {"status": "ok", "version": __version__}

    def stats(self) -> Dict[str, Any]:
        cache_stats: Dict[str, Any] = {"enabled": self.cache is not None}
        if self.cache is not None:
            hits, misses = self.cache.hits, self.cache.misses
            total = hits + misses
            cache_stats.update(
                hits=hits,
                misses=misses,
                hit_rate=(hits / total) if total else None,
                root=str(self.cache.root),
            )
        with self._lock:
            requests = dict(sorted(self._requests.items()))
            rate_limited = self._rate_limited_total
            shed = self._shed_total
        admission: Dict[str, Any] = {
            "rate_limit": {"enabled": self.limiter is not None},
            "rate_limited_total": rate_limited,
            "shed_total": shed,
        }
        if self.limiter is not None:
            admission["rate_limit"].update(self.limiter.config())
        journal_stats: Dict[str, Any] = {"enabled": self.journal is not None}
        if self.journal is not None:
            journal_stats.update(
                path=str(self.journal.path),
                entries=self.journal.entries,
                bytes=self.journal.size_bytes(),
                recovered_total=self.recovered_total,
                last_replay=self._last_replay,
            )
        return {
            "version": __version__,
            "uptime_s": round(self.uptime_s(), 3),
            "requests": requests,
            "requests_total": sum(requests.values()),
            "cache": cache_stats,
            "admission": admission,
            "journal": journal_stats,
            "jobs": {
                **self.jobs.counts(),
                "queue_depth_limit": self.jobs.depth,
                "run_seconds": self.jobs.run_stats(),
            },
        }

    def predict(self, body: Any) -> Dict[str, Any]:
        req = validate_predict_request(body)
        try:
            mode = PredictMode(sample=req.sample, diagnose=req.diagnose)
        except ValueError as exc:
            raise bad_request(str(exc)) from None
        # A trace file's identity comes from the memo while its stat is
        # unchanged, so a cache hit never opens the file.
        trace: Optional[Trace] = None
        if req.trace_inline is not None:
            trace = self._trace_from_inline(req.trace_inline)
            identity = _identity(trace)
        else:
            assert req.trace_path is not None
            path, stat_id = self._resolve_trace_path(req.trace_path)
            identity = self._recall_identity(stat_id)
            if identity is None:
                trace, identity = self._read_identified(
                    path, req.trace_path, stat_id
                )
        try:
            params = presets.by_name(req.preset)
            params = apply_param_overrides(params, req.overrides)
        except ValueError as exc:
            raise bad_request(str(exc)) from None
        extra = mode.cache_extra(PREDICT_CACHE_EXTRA)
        key = result_key(identity[0], params, extra=extra)
        payload = self.cache.get(key) if self.cache is not None else None
        cached = payload is not None
        if payload is None:
            prepared = PREPARED.get(identity[0]) if trace is None else None
            if prepared is None:
                if trace is None:
                    # The simulation needs the events; a fresh digest
                    # keys the result, so a stale identity cannot
                    # misfile it.
                    trace, identity = self._read_identified(
                        path, req.trace_path, stat_id
                    )
                    key = result_key(identity[0], params, extra=extra)
                prepared = PREPARED.prepare(trace)
            try:
                outcome = predict(
                    prepared,
                    params,
                    mode,
                    wall_clock_budget=self._clamp_budget(req.wall_budget),
                )
            except SimulationStalled as exc:
                raise ApiError(504, str(exc)) from None
            except ValueError as exc:
                # e.g. a zero-event trace cannot be sampled
                raise bad_request(str(exc)) from None
            body_out = {
                "metrics": result_record(outcome),
                "report": predict_report(params, outcome),
            }
            if req.diagnose:
                from repro.diagnose import diagnose

                body_out["diagnosis"] = diagnose(
                    outcome.result.timeline
                ).to_dict()
            # Round-trip through JSON so a fresh response is
            # byte-identical to the cached replay of itself.
            payload = json.loads(json.dumps(body_out))
            if self.cache is not None:
                self.cache.put(key, payload)
        digest, program, n_threads = identity
        return {
            "cached": cached,
            "key": key,
            "preset": req.preset,
            "trace": {
                "digest": digest,
                "program": program,
                "n_threads": n_threads,
            },
            **payload,
        }

    def _build_sweep_fn(
        self, body: Any
    ) -> Tuple[Callable[[], Dict[str, Any]], SweepSpec]:
        """Validate a sweep request body into its run closure + spec.

        Shared by live submission and journal recovery, so a recovered
        job runs through exactly the code path the original would have.
        """
        req = validate_sweep_request(body)
        try:
            spec = SweepSpec.from_dict(req.spec)
        except ValueError as exc:
            raise bad_request(str(exc)) from None
        trace: Optional[Trace] = None
        if req.trace_inline is not None or req.trace_path is not None:
            trace = self._load_trace(req)
        elif spec.benchmark is None:
            raise bad_request(
                "sweep needs a trace ('trace' or 'trace_path') or a "
                "'benchmark' field in the spec"
            )
        jobs = min(req.jobs or 1, self.sweep_jobs)
        wall_budget = self._clamp_budget(req.wall_budget)
        retries = req.retries if req.retries is not None else 1
        chaos_slow_s = self._chaos_slow_s

        def run() -> Dict[str, Any]:
            if chaos_slow_s:  # test-only fault hook; see CHAOS_SLOW_JOB_ENV
                time.sleep(chaos_slow_s)
            run_ = run_sweep(
                spec,
                trace=trace,
                jobs=jobs,
                cache=self.cache,
                wall_budget=wall_budget,
                retries=retries,
            )
            artifact = json.loads(run_.to_json())
            artifact["counters"] = run_.counters.as_dict()
            return artifact

        return run, spec

    def submit_sweep(self, body: Any) -> Dict[str, Any]:
        run, spec = self._build_sweep_fn(body)
        payload: Optional[Dict[str, Any]] = None
        digest = ""
        if self.journal is not None:
            # dict(body) is JSON-safe by construction (it arrived as
            # JSON); the journal needs it to rebuild the job on restart.
            payload = dict(body)
            digest = request_digest(payload)
        try:
            job = self.jobs.submit(
                "sweep",
                run,
                label=f"{spec.name} ({len(spec)} points)",
                payload=payload,
                digest=digest,
            )
        except QueueFullError as exc:
            self.count_shed()
            raise ApiError(
                503, str(exc), retry_after=SHED_RETRY_AFTER_S
            ) from None
        except QueueClosedError as exc:
            self.count_shed()
            raise ApiError(
                503, str(exc), retry_after=DRAIN_RETRY_AFTER_S
            ) from None
        return {**job.status_dict(), "points": len(spec)}

    def job_status(self, job_id: str) -> Dict[str, Any]:
        job = self.jobs.get(job_id)
        if job is None:
            raise ApiError(404, f"unknown job {job_id!r}")
        return job.status_dict()

    def job_result(self, job_id: str) -> Dict[str, Any]:
        job = self.jobs.get(job_id)
        if job is None:
            raise ApiError(404, f"unknown job {job_id!r}")
        if job.status in ("queued", "running"):
            raise ApiError(
                409, f"job {job_id} is {job.status}; poll /v1/jobs/{job_id}"
            )
        if job.status == "cancelled":
            raise ApiError(409, f"job {job_id} was cancelled at shutdown")
        if job.status == "interrupted":
            raise ApiError(
                409,
                f"job {job_id} was interrupted at shutdown; a restart with "
                "the same --state-dir will recover it",
            )
        if job.status == "failed":
            raise ApiError(500, f"job {job_id} failed: {job.error_type}: {job.error}")
        return {**job.status_dict(), "result": job.result}

    # -- lifecycle -----------------------------------------------------------

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Drain (or cancel) the job queue; idempotent.

        ``timeout`` defaults to the configured ``drain_timeout``; past
        it, unfinished jobs are journaled ``interrupted`` and the call
        returns ``False`` (the process should still exit 0 — a
        supervisor restart recovers the interrupted jobs).
        """
        if timeout is None:
            timeout = self.drain_timeout
        drained = self.jobs.close(drain=drain, timeout=timeout)
        if self.journal is not None:
            self.journal.close()
        return drained
