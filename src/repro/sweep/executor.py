"""Parallel execution of sweep points and other grids of extrapolations.

Three parts:

* :class:`ParallelExecutor` — a generic ordered task fan-out on
  :class:`concurrent.futures.ProcessPoolExecutor` with a serial
  fallback (``jobs=1`` never touches multiprocessing), bounded retries
  for watchdog stalls, and per-completion progress logging.  Workers
  are invoked through a catch-all shim, so one diverging point is
  recorded as a failure instead of killing the sweep.  Results are
  collected *by task index*, which is what makes ``--jobs 4`` output
  byte-identical to ``--jobs 1``.
* :func:`run_sweep` — the sweep driver: expands a
  :class:`~repro.sweep.spec.SweepSpec`, answers points from the
  :class:`~repro.sweep.cache.ResultCache` where possible, fans the
  misses out, and stores fresh results back.  Each task carries its
  trace's digest, and the worker takes the prepared trace from
  :data:`repro.core.memo.PREPARED` under it, so translation and sampling
  plans are built once per trace and process, not per point.  Fresh
  results round-trip through the same JSON encoding the cache uses
  before they are reported, so a cached and an uncached run of the same
  spec render identically down to float formatting.
* :func:`extrapolate_many` — the same tasks and worker without a spec
  or cache: the one way the experiments and ``extrap study`` /
  ``extrap compare`` run a grid of ``(trace, params)`` points.

Per-point timeouts reuse the simulation watchdog: the wall-clock budget
is enforced *inside* the point by
:class:`repro.des.engine.SimulationStalled`, which carries a stall
diagnosis — strictly more useful than an executor-side kill.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.memo import PREPARED
from repro.core.parameters import SimulationParameters
from repro.core.pipeline import measure
from repro.core.predict import PredictMode, predict
from repro.metrics import result_record
from repro.perf import SweepCounters
from repro.sweep.cache import ResultCache, result_key
from repro.sweep.spec import SweepPoint, SweepSpec
from repro.trace.trace import Trace
from repro.util.log import get_logger

log = get_logger("sweep")

#: Exception type names the executor retries (bounded by ``retries``).
RETRYABLE = ("SimulationStalled",)


@dataclass
class TaskOutcome:
    """What happened to one task: a value or a recorded failure."""

    index: int
    ok: bool
    value: Any = None
    error_type: str = ""
    error: str = ""
    attempts: int = 1


def _invoke(worker: Callable[[Any], Any], task: Any) -> tuple:
    """Run one task, trapping worker exceptions into plain data.

    Exceptions are flattened to ``(type name, message)`` so nothing
    unpicklable ever has to cross the process boundary.
    """
    try:
        return ("ok", worker(task))
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc))


class ParallelExecutor:
    """Ordered task fan-out with a serial fallback and stall retries.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` runs everything in-process (no
        multiprocessing import, no pickling) and is the reference
        ordering the parallel path must reproduce.
    retries:
        How many times a task whose failure type is in ``retry_on``
        is re-run before being recorded as failed.
    retry_on:
        Exception type *names* that qualify for retry.  Defaults to the
        watchdog's ``SimulationStalled``.
    initializer / initargs:
        Forwarded to the process pool (and called once, in-process, for
        the serial path) — used to ship shared read-only state such as
        traces to workers once instead of per task.
    progress_label:
        Noun for progress log lines, e.g. ``"point"``.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        retries: int = 0,
        retry_on: Sequence[str] = RETRYABLE,
        initializer: Optional[Callable[..., None]] = None,
        initargs: tuple = (),
        progress_label: str = "task",
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.retries = retries
        self.retry_on = tuple(retry_on)
        self.initializer = initializer
        self.initargs = initargs
        self.progress_label = progress_label
        #: retries actually performed by the last :meth:`map` call
        self.retried = 0

    def map(self, worker: Callable[[Any], Any], tasks: Sequence[Any]) -> List[TaskOutcome]:
        """Run ``worker`` over ``tasks``; outcomes ordered like ``tasks``."""
        self.retried = 0
        if not tasks:
            return []
        if self.jobs == 1:
            return self._map_serial(worker, tasks)
        return self._map_parallel(worker, tasks)

    # -- serial reference path ----------------------------------------------

    def _map_serial(self, worker, tasks) -> List[TaskOutcome]:
        if self.initializer is not None:
            self.initializer(*self.initargs)
        outcomes = []
        for index, task in enumerate(tasks):
            attempts = 0
            while True:
                attempts += 1
                res = _invoke(worker, task)
                if res[0] == "ok":
                    outcome = TaskOutcome(index, True, res[1], attempts=attempts)
                    break
                if res[1] in self.retry_on and attempts <= self.retries:
                    self.retried += 1
                    log.info(
                        "%s %d stalled (%s), retry %d/%d",
                        self.progress_label, index, res[2], attempts, self.retries,
                    )
                    continue
                outcome = TaskOutcome(
                    index, False, error_type=res[1], error=res[2], attempts=attempts
                )
                break
            outcomes.append(outcome)
            self._progress(len(outcomes), len(tasks), outcome)
        return outcomes

    # -- process-pool path ---------------------------------------------------

    def _map_parallel(self, worker, tasks) -> List[TaskOutcome]:
        outcomes: List[Optional[TaskOutcome]] = [None] * len(tasks)
        attempts: Dict[int, int] = {i: 0 for i in range(len(tasks))}
        done_count = 0
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(tasks)),
            initializer=self.initializer,
            initargs=self.initargs,
        )
        pending: Dict[Any, int] = {}
        try:
            for index, task in enumerate(tasks):
                attempts[index] += 1
                pending[pool.submit(_invoke, worker, task)] = index
            while pending:
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in finished:
                    index = pending.pop(fut)
                    try:
                        res = fut.result()
                    except Exception as exc:  # pool breakage, unpicklable value
                        res = ("error", type(exc).__name__, str(exc))
                    if res[0] == "ok":
                        outcome = TaskOutcome(
                            index, True, res[1], attempts=attempts[index]
                        )
                    elif res[1] in self.retry_on and attempts[index] <= self.retries:
                        self.retried += 1
                        log.info(
                            "%s %d stalled (%s), retry %d/%d",
                            self.progress_label, index, res[2],
                            attempts[index], self.retries,
                        )
                        attempts[index] += 1
                        pending[pool.submit(_invoke, worker, tasks[index])] = index
                        continue
                    else:
                        outcome = TaskOutcome(
                            index, False,
                            error_type=res[1], error=res[2],
                            attempts=attempts[index],
                        )
                    outcomes[index] = outcome
                    done_count += 1
                    self._progress(done_count, len(tasks), outcome)
        except BaseException as exc:
            # Ctrl-C (or any other escape) must not strand worker
            # processes mid-sweep: queued tasks would otherwise keep
            # executing through the pool's shutdown(wait=True).
            self._abort_pool(
                pool, pending, kill=isinstance(exc, (KeyboardInterrupt, SystemExit))
            )
            raise
        pool.shutdown(wait=True)
        return [o for o in outcomes if o is not None]

    @staticmethod
    def _abort_pool(pool, pending, *, kill: bool) -> None:
        """Cancel queued work and reap workers after an interrupt/error.

        ``kill=True`` (interrupt) additionally terminates worker
        processes so an in-flight point cannot keep the interpreter
        alive; results are discarded either way, so losing the points is
        the intended outcome.
        """
        for fut in pending:
            fut.cancel()
        pool.shutdown(wait=False, cancel_futures=True)
        if not kill:
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        for proc in procs:
            with contextlib.suppress(Exception):
                proc.terminate()
        for proc in procs:
            with contextlib.suppress(Exception):
                proc.join(5)

    def _progress(self, done: int, total: int, outcome: TaskOutcome) -> None:
        if outcome.ok:
            log.info("%s %d/%d done", self.progress_label, done, total)
        else:
            log.warning(
                "%s %d/%d FAILED (%s: %s)",
                self.progress_label, done, total, outcome.error_type, outcome.error,
            )


# -- point workers -----------------------------------------------------------

#: Traces shared with worker processes via the pool initializer, keyed
#: by digest; avoids re-pickling the (potentially large) trace into
#: every task.  Thread-local: the serial path runs the initializer
#: and its tasks in the calling thread, and serve runs sweeps from
#: several threads at once.
_WORKER = threading.local()


def _init_worker_traces(traces: Dict[str, Trace]) -> None:
    _WORKER.traces = traces


@dataclass(frozen=True)
class _PointTask:
    """Everything one worker needs to run one (trace, params) point."""

    #: the point's trace's digest: its key in the traces every worker
    #: was sent
    digest: str
    params: SimulationParameters
    #: when set, the point is answered by a SimPoint-style sampled
    #: estimate instead of a full simulation
    sample: Optional[Any] = None
    wall_budget: Optional[float] = None


def _point_worker(task: _PointTask) -> Dict[str, Any]:
    outcome = predict(
        PREPARED.prepare(_WORKER.traces[task.digest]),
        task.params,
        PredictMode(sample=task.sample),
        wall_clock_budget=task.wall_budget,
    )
    return result_record(outcome)


def _json_roundtrip(record: Dict[str, Any]) -> Dict[str, Any]:
    """Normalise a fresh record exactly the way the cache will.

    JSON float text is exact for round-tripping, but ``-0.0`` and int
    floats could in principle render differently from their Python
    originals; one round-trip guarantees a cached second run formats
    byte-identically to the first.
    """
    return json.loads(json.dumps(record))


# -- sweep driver ------------------------------------------------------------


@dataclass
class PointRecord:
    """One sweep point plus its (possibly cached) result or failure."""

    point: SweepPoint
    result: Optional[Dict[str, Any]] = None
    error_type: str = ""
    error: str = ""
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None


@dataclass
class SweepRun:
    """Everything one sweep produced, in spec point order."""

    spec: SweepSpec
    records: List[PointRecord]
    counters: SweepCounters = field(default_factory=SweepCounters)

    def to_json(self) -> str:
        """Deterministic result artifact.

        Depends only on the spec and the simulation results — never on
        job count, cache state, or wall time — so repeated runs of one
        spec produce byte-identical files.
        """
        points = []
        for rec in self.records:
            entry: Dict[str, Any] = {
                "index": rec.point.index,
                "label": rec.point.label(),
                "overrides": rec.point.as_dict(),
            }
            if rec.ok:
                entry["result"] = rec.result
            else:
                entry["error"] = {"type": rec.error_type, "message": rec.error}
            points.append(entry)
        doc = {
            "schema": 1,
            "name": self.spec.name,
            "preset": self.spec.preset,
            "points": points,
        }
        if self.spec.sample is not None:
            doc["sample"] = self.spec.sample.canonical_dict()
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _measure_benchmark_trace(spec: SweepSpec, n_threads: int) -> Trace:
    from repro.bench.suite import get_benchmark

    info = get_benchmark(spec.benchmark)
    maker = info.make_program()
    log.info("measuring %s with %d threads", spec.benchmark, n_threads)
    return measure(
        maker(n_threads), n_threads, name=spec.benchmark, size_mode=spec.size_mode
    )


def run_sweep(
    spec: SweepSpec,
    *,
    trace: Optional[Trace] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    wall_budget: Optional[float] = None,
    retries: int = 1,
) -> SweepRun:
    """Execute every point of ``spec`` and collect results in spec order.

    Parameters
    ----------
    trace:
        Pre-measured trace to extrapolate (trace mode).  When ``None``
        the spec must name a ``benchmark``, which is measured once per
        distinct thread count (benchmark mode; the only mode where an
        ``n_threads`` axis is allowed).
    jobs:
        Point-level parallelism; ``1`` is the serial reference path and
        any other value must produce identical results.
    cache:
        Optional :class:`~repro.sweep.cache.ResultCache`; hits skip
        execution entirely, misses are stored back after execution.
    wall_budget:
        Per-point wall-clock watchdog budget (seconds); a stalled point
        raises ``SimulationStalled`` in its worker and is retried up to
        ``retries`` times before being recorded as failed.
    """
    t0 = time.perf_counter()
    points = spec.expand()
    counters = SweepCounters(points_total=len(points))
    # The cache instance may be shared across runs; count only this
    # run's lookups.
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0

    #: digest -> trace, the traces the workers are sent
    traces: Dict[str, Trace] = {}
    #: thread count -> its measured trace (benchmark mode)
    measured: Dict[int, Trace] = {}

    def trace_for(point: SweepPoint) -> Trace:
        """The trace this point runs against (measuring lazily)."""
        if trace is not None:
            if point.n_threads is not None:
                raise ValueError(
                    "spec uses an 'n_threads' axis, which re-measures the "
                    "program; drop the axis or sweep a benchmark instead of "
                    "a fixed trace"
                )
            return trace
        if spec.benchmark is None:
            raise ValueError(
                "no trace given and the spec names no 'benchmark'; "
                "set one of the two"
            )
        n = point.n_threads or spec.n_threads
        if n not in measured:
            measured[n] = _measure_benchmark_trace(spec, n)
        return measured[n]

    # Resolve each point against the cache first; only misses execute.
    records: List[PointRecord] = [PointRecord(p) for p in points]
    keys: List[Optional[str]] = [None] * len(points)
    tasks: List[_PointTask] = []
    task_indices: List[int] = []
    key_extra = PredictMode(sample=spec.sample).cache_extra()
    for i, point in enumerate(points):
        point_trace = trace_for(point)
        # Trace.digest() memoises, so only the first call per trace hashes.
        digest = point_trace.digest()
        traces[digest] = point_trace
        params = point.params(spec.preset)
        if cache is not None:
            key = result_key(digest, params, extra=key_extra)
            keys[i] = key
            hit = cache.get(key)
            if hit is not None:
                records[i].result = hit
                records[i].cached = True
                continue
        tasks.append(_PointTask(digest, params, spec.sample, wall_budget))
        task_indices.append(i)
    if cache is not None:
        counters.cache_hits = cache.hits - hits0
        counters.cache_misses = cache.misses - misses0

    if tasks:
        executor = ParallelExecutor(
            jobs,
            retries=retries,
            initializer=_init_worker_traces,
            initargs=(traces,),
            progress_label="point",
        )
        outcomes = executor.map(_point_worker, tasks)
        counters.retried = executor.retried
        for task_pos, outcome in enumerate(outcomes):
            i = task_indices[task_pos]
            counters.executed += outcome.attempts
            if outcome.ok:
                records[i].result = _json_roundtrip(outcome.value)
                if cache is not None and keys[i] is not None:
                    cache.put(keys[i], records[i].result)
            else:
                records[i].error_type = outcome.error_type
                records[i].error = outcome.error
                counters.failed += 1

    counters.wall_s = time.perf_counter() - t0
    log.info(
        "sweep %s: %d points, %d executed, %d cached, %d failed in %.2fs "
        "(%.1f points/s)",
        spec.name, counters.points_total, counters.executed,
        counters.cache_hits, counters.failed, counters.wall_s,
        counters.points_per_s,
    )
    return SweepRun(spec=spec, records=records, counters=counters)


# -- grid fan-out (experiments, extrap study / compare) ----------------------


def _grid_point_worker(task: _PointTask) -> Any:
    """:func:`_point_worker`, returning a rejected trace's ``ValueError``.

    Returned, the rejection is no failure for the executor to log, and
    :func:`extrapolate_many` raises it as the plain ``ValueError`` that
    :func:`~repro.core.predict.predict` documents, whatever its subclass.
    """
    try:
        return _point_worker(task)
    except ValueError as exc:
        return ValueError(str(exc))


def extrapolate_many(
    tasks: Sequence[Tuple[Trace, SimulationParameters]], *, jobs: int = 1
) -> List[Dict[str, Any]]:
    """The :func:`result_record` of each ``(trace, params)`` pair, in order.

    The one fan-out for a grid of extrapolations: serial with ``jobs=1``
    (bit-identical to a plain loop), a process pool otherwise.  Each
    distinct trace is sent to the workers once, keyed by its digest,
    and prepared once per process.  A failed point raises, the first in
    task order: a trace the model cannot run as ``ValueError`` with its
    message, anything else as ``RuntimeError``.
    """
    traces: Dict[str, Trace] = {}
    points: List[_PointTask] = []
    for trace, params in tasks:
        # Trace.digest() memoises, so only the first call per trace hashes.
        digest = trace.digest()
        traces.setdefault(digest, trace)
        points.append(_PointTask(digest, params))
    executor = ParallelExecutor(
        jobs,
        initializer=_init_worker_traces,
        initargs=(traces,),
        progress_label="extrapolation",
    )
    outcomes = executor.map(_grid_point_worker, points)
    failed = [o for o in outcomes if not o.ok or isinstance(o.value, ValueError)]
    if failed:
        first = failed[0]
        if first.ok:
            raise first.value
        raise RuntimeError(
            f"{len(failed)} of {len(tasks)} extrapolations failed; first: "
            f"{first.error_type}: {first.error}"
        )
    return [o.value for o in outcomes]
