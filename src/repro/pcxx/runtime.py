"""The tracing runtime: n threads, 1 virtual processor, event trace out.

This reproduces the paper's modified pC++ runtime system (§3.2):

* all n threads execute on a single processor and switch only at
  barriers: :meth:`TracingRuntime.run` is the analog of the paper's
  non-preemptive AWESIME threads package, running each thread until it
  waits at a barrier or ends;
* elements live in a global space, so remote accesses cost the same as
  local ones and return immediately;
* the runtime records every inter-thread interaction — barrier entry,
  barrier exit, remote element access — as a high-level trace event.

Computation time is charged through an explicit work model: benchmark
threads call :meth:`ThreadCtx.compute` with a flop count, which advances
the shared virtual clock at the trace machine's MFLOPS rating (Sun4 =
1.1360 in the paper).  See DESIGN.md for why this substitution preserves
what extrapolation consumes.

Thread bodies are generator functions receiving a :class:`ThreadCtx`::

    def body(ctx):
        yield from ctx.compute(1000)           # 1000 flops of local work
        v = yield from ctx.get(coll, (r, c))   # maybe-remote element read
        yield from ctx.barrier()               # global barrier
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Sequence

from repro.pcxx.collection import Collection, Index
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace, TraceMeta

#: Default trace-machine rating: the paper's Sun4 scalar MFLOPS.
SUN4_MFLOPS = 1.1360

#: CM-5 node scalar MFLOPS (used for MipsRatio presets).
CM5_MFLOPS = 2.7645

ThreadBody = Callable[["ThreadCtx"], Generator[Any, Any, Any]]

#: What :meth:`ThreadCtx.barrier` yields to hand the processor on.
_WAIT = object()


class DeadlockError(RuntimeError):
    """The program ended with threads still waiting at a barrier."""


class TracingRuntime:
    """Runs an n-thread program on one virtual processor, producing a Trace.

    Parameters
    ----------
    n_threads:
        Number of pC++ threads.
    program:
        Program name recorded in trace metadata.
    trace_mflops:
        MFLOPS rating of the (virtual) trace machine; compute phases of
        ``f`` flops advance the clock by ``f / trace_mflops`` microseconds.
    size_mode:
        ``"compiler"`` records every remote access at the whole collection
        element size; ``"actual"`` records the bytes the caller actually
        requested (§4.1's Grid fix).
    event_overhead:
        Virtual time charged per recorded event — models instrumentation
        intrusion; the translation step can compensate for it.
    flush_every / flush_overhead:
        Every ``flush_every`` recorded events the runtime flushes its
        event buffer, charging ``flush_overhead`` — the other
        measurement intrusion the paper says the translation algorithm
        "is easily modified to handle" (§3.2).  Pass the same values to
        :func:`repro.core.translation.translate` to compensate.
    compute_noise:
        Relative timing noise on compute phases: each compute advance is
        multiplied by a seeded uniform factor in
        ``[1 - noise, 1 + noise]``.  Models the measurement uncertainty
        the paper warns about in §2 ("the uncertainty in performance
        information and its effect on the accuracy of the metric"); the
        noise-sensitivity ablation sweeps it.
    noise_seed:
        Seed for the noise stream (defaults to the library seed).
    problem:
        Free-form problem parameters stored in trace metadata.
    """

    def __init__(
        self,
        n_threads: int,
        program: str = "",
        *,
        trace_mflops: float = SUN4_MFLOPS,
        size_mode: str = "compiler",
        event_overhead: float = 0.0,
        flush_every: int = 0,
        flush_overhead: float = 0.0,
        compute_noise: float = 0.0,
        noise_seed: Optional[int] = None,
        problem: Optional[Dict[str, Any]] = None,
    ):
        if n_threads < 1:
            raise ValueError(f"need at least 1 thread, got {n_threads}")
        if trace_mflops <= 0:
            raise ValueError(f"trace_mflops must be positive, got {trace_mflops}")
        if size_mode not in ("compiler", "actual"):
            raise ValueError(f"size_mode must be 'compiler' or 'actual', got {size_mode!r}")
        if event_overhead < 0:
            raise ValueError(f"negative event overhead {event_overhead}")
        if flush_every < 0 or flush_overhead < 0:
            raise ValueError("flush parameters must be >= 0")
        self.n_threads = n_threads
        self.size_mode = size_mode
        self.us_per_flop = 1.0 / trace_mflops
        self.event_overhead = float(event_overhead)
        self.flush_every = int(flush_every)
        self.flush_overhead = float(flush_overhead)
        if not 0.0 <= compute_noise < 1.0:
            raise ValueError(f"compute_noise must be in [0, 1), got {compute_noise}")
        self.compute_noise = float(compute_noise)
        from repro.util.rng import make_rng

        self._noise_rng = make_rng(noise_seed) if compute_noise else None
        #: virtual time of the 1-processor run (microseconds)
        self.clock = 0.0
        self.meta = TraceMeta(
            program=program,
            n_threads=n_threads,
            trace_mflops=trace_mflops,
            size_mode=size_mode,
            problem=dict(problem or {}),
        )
        #: events recorded so far; :meth:`run` builds the trace from them
        self.events: List[TraceEvent] = []
        #: tids ready to run, in the order they run
        self._ready: Deque[int] = deque()
        #: barrier episode -> tids waiting there, in arrival order
        self._barriers: Dict[int, List[int]] = {}
        self._finished = False
        from repro.pcxx.races import RaceChecker

        #: §5 applicability watchdog: same-epoch read/write conflicts
        #: mean the trace may not be environment-independent.
        self.races = RaceChecker()

    # -- trace recording ------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        self.events.append(event)
        if self.event_overhead:
            self.clock += self.event_overhead
        if self.flush_every and len(self.events) % self.flush_every == 0:
            self.clock += self.flush_overhead

    # -- execution ------------------------------------------------------------

    def run(self, bodies: Sequence[ThreadBody] | ThreadBody) -> Trace:
        """Execute thread bodies to completion and return the trace.

        ``bodies`` is either one callable applied to every thread or a
        sequence of ``n_threads`` callables.  Threads start in tid order;
        each runs until it waits at a barrier or ends.  The last thread
        to reach a barrier queues the waiting ones in arrival order and
        runs on.

        Raises
        ------
        DeadlockError
            If threads are still waiting at a barrier when no thread can
            run (a thread skipped a barrier or took an extra one).
        RuntimeError
            If a body yields anything but a :class:`ThreadCtx` operation.
        """
        if self._finished:
            raise RuntimeError("this runtime has already executed a program")
        if callable(bodies):
            bodies = [bodies] * self.n_threads
        if len(bodies) != self.n_threads:
            raise ValueError(
                f"{len(bodies)} thread bodies for {self.n_threads} threads"
            )
        threads = [
            self._wrap(ThreadCtx(self, tid), body) for tid, body in enumerate(bodies)
        ]
        ready = self._ready
        ready.extend(range(self.n_threads))
        while ready:
            tid = ready.popleft()
            try:
                op = threads[tid].send(None)
            except StopIteration:
                continue
            if op is not _WAIT:
                raise RuntimeError(
                    f"thread {tid}: program yielded {op!r}, "
                    "expected a ThreadCtx operation"
                )
        if self._barriers:
            raise DeadlockError(
                "threads wait at a barrier no other thread reaches: "
                + ", ".join(
                    f"thread {tid} at barrier {bid}"
                    for bid, waiting in sorted(self._barriers.items())
                    for tid in waiting
                )
            )
        self._finished = True
        trace = Trace(self.meta, self.events)
        # Attach the §5 safety findings to the trace (in-memory only; the
        # file formats carry events, not diagnostics).
        trace.race_findings = list(self.races.findings)
        return trace

    def _wrap(self, ctx: "ThreadCtx", body: ThreadBody) -> Generator[Any, Any, Any]:
        self._record(TraceEvent(self.clock, ctx.tid, EventKind.THREAD_BEGIN))
        yield from body(ctx)
        self._record(TraceEvent(self.clock, ctx.tid, EventKind.THREAD_END))

    # -- barrier implementation -------------------------------------------------

    def _barrier_enter(self, tid: int, bid: int) -> bool:
        """Record entry; return True if the caller is the last to arrive.

        The last one queues the waiting threads to run after it.
        """
        self._record(
            TraceEvent(self.clock, tid, EventKind.BARRIER_ENTER, barrier_id=bid)
        )
        waiting = self._barriers.setdefault(bid, [])
        if len(waiting) + 1 < self.n_threads:
            waiting.append(tid)
            return False
        self._ready.extend(waiting)
        del self._barriers[bid]
        return True

    def _barrier_exit(self, tid: int, bid: int) -> None:
        self._record(
            TraceEvent(self.clock, tid, EventKind.BARRIER_EXIT, barrier_id=bid)
        )


class ThreadCtx:
    """Per-thread handle to the runtime — the API benchmark code uses.

    All operations are generators so the same benchmark code also runs
    unmodified on the reference machine simulator, where these operations
    genuinely take simulated time.
    """

    def __init__(self, runtime: TracingRuntime, tid: int):
        self.rt = runtime
        self.tid = tid
        self._barrier_seq = 0

    @property
    def n_threads(self) -> int:
        return self.rt.n_threads

    @property
    def now(self) -> float:
        """Current virtual time (microseconds)."""
        return self.rt.clock

    # -- work model ------------------------------------------------------------

    def _noisy(self, duration: float) -> float:
        rng = self.rt._noise_rng
        if rng is None:
            return duration
        eps = self.rt.compute_noise
        return duration * float(rng.uniform(1.0 - eps, 1.0 + eps))

    def compute(self, flops: float) -> Generator[Any, Any, None]:
        """Charge ``flops`` floating-point operations of local computation."""
        if flops < 0:
            raise ValueError(f"negative flop count {flops}")
        self.rt.clock += self._noisy(flops * self.rt.us_per_flop)
        return
        yield  # pragma: no cover - makes this a generator

    def compute_us(self, us: float) -> Generator[Any, Any, None]:
        """Charge ``us`` microseconds of local computation directly."""
        if us < 0:
            raise ValueError(f"negative compute time {us}")
        self.rt.clock += self._noisy(us)
        return
        yield  # pragma: no cover

    # -- element access ----------------------------------------------------------

    def get(
        self, coll: Collection, index: Index, nbytes: int | None = None
    ) -> Generator[Any, Any, Any]:
        """Read a collection element; records REMOTE_READ if not owned.

        ``nbytes`` is the actual number of bytes the caller needs from the
        element; in ``"actual"`` size mode it is what gets recorded (the
        whole element size is recorded otherwise, like the pC++ compiler's
        high-level size information).
        """
        owner = coll.owner(index)
        value = coll._load(index)
        if owner != self.tid:
            self.rt.races.on_remote_read(
                self._barrier_seq, coll.name, index, self.tid
            )
            self.rt._record(
                TraceEvent(
                    self.rt.clock,
                    self.tid,
                    EventKind.REMOTE_READ,
                    owner=owner,
                    nbytes=self._record_size(coll, nbytes),
                    collection=coll.name,
                )
            )
        return value
        yield  # pragma: no cover

    def put(
        self, coll: Collection, index: Index, value: Any, nbytes: int | None = None
    ) -> Generator[Any, Any, None]:
        """Write a collection element; records REMOTE_WRITE if not owned.

        Remote writes are the paper's §5 extension; programs that want the
        deterministic-replay guarantee should only write locally.
        """
        owner = coll.owner(index)
        coll._store(index, value)
        self.rt.races.on_write(self._barrier_seq, coll.name, index, self.tid)
        if owner != self.tid:
            self.rt._record(
                TraceEvent(
                    self.rt.clock,
                    self.tid,
                    EventKind.REMOTE_WRITE,
                    owner=owner,
                    nbytes=self._record_size(coll, nbytes),
                    collection=coll.name,
                )
            )
        return
        yield  # pragma: no cover

    def _record_size(self, coll: Collection, nbytes: int | None) -> int:
        if self.rt.size_mode == "actual" and nbytes is not None:
            if nbytes <= 0:
                raise ValueError(f"actual access size must be positive, got {nbytes}")
            return int(nbytes)
        return coll.element_nbytes

    # -- synchronisation ---------------------------------------------------------

    def barrier(self) -> Generator[Any, Any, None]:
        """Global barrier across all threads.

        Every thread must call barrier the same number of times in the
        same order (the data-parallel execution model guarantees this);
        the k-th barrier of every thread is episode k.
        """
        bid = self._barrier_seq
        self._barrier_seq += 1
        if not self.rt._barrier_enter(self.tid, bid):
            yield _WAIT
        self.rt._barrier_exit(self.tid, bid)

    # -- annotations ----------------------------------------------------------

    def mark(self, tag: str) -> Generator[Any, Any, None]:
        """Record a user phase marker (no timing-model effect)."""
        self.rt._record(
            TraceEvent(self.rt.clock, self.tid, EventKind.MARK, tag=tag)
        )
        return
        yield  # pragma: no cover

    # -- convenience -------------------------------------------------------------

    def local_indices(self, coll: Collection) -> List[Index]:
        """Indices of ``coll`` owned by this thread."""
        return coll.local_indices(self.tid)
