"""The processor model (§3.3.1).

Each simulated processor replays the translated traces of the threads
assigned to it (one thread in the paper's model):

* COMPUTE actions take their measured duration scaled by ``MipsRatio``;
  what happens when a message arrives mid-compute is the remote-request
  *service policy* — NO_INTERRUPT (queue it), INTERRUPT (preempt, pay
  ``interrupt_overhead``, service, resume), or POLL (drain the queue every
  ``poll_interval``, paying ``poll_overhead`` per check);
* REMOTE_READ actions run the request/reply protocol against the owner
  and block until the reply returns — servicing other processors'
  requests while blocked;
* BARRIER actions run the configured barrier protocol
  (:class:`repro.sim.barrier.BarrierCoordinator`), also servicing
  requests while waiting.

A processor hosting k > 1 threads (the §6 extension: n threads on m <= n
processors) runs them non-preemptively: a thread keeps the CPU until it
waits on a reply or a barrier, and the next ready thread takes over at
the same instant.  Only when no thread is ready does the processor wait
and serve its inbox.  An access to a thread on the same processor costs
``request_service_time`` and sends no message.  At a barrier, threads
park until the last local one arrives; that one runs the barrier
protocol for the processor.  A processor hosting one thread skips that
scheduler when its thread waits on a pending reply with no retry timer
(outside :meth:`SimProcessor._next`): :meth:`SimProcessor._wait` waits
on the reply directly, through the same inbox wait ``_next`` would
reach, and charges the same ``comm_wait`` before it resumes the thread,
so the queue entries and every result are the same.

After its replay finishes, a processor keeps servicing incoming requests
forever (the pC++ runtime never stops serving remote accesses), so
threads that finish early still answer the stragglers.

The replay is callback-driven.  A processor waits on one queue entry
at a time, and the step that follows a wait is that entry's callback.
A wait that nothing else can end (busy time, a message in transit, an
inbox get that races nothing) queues the step itself as a plain call
(:meth:`~repro.des.Environment.call_in`,
:meth:`~repro.des.stores.Store.get_then`); a raced wait (a compute
slice against an arrival, a retry timer, a barrier release) keeps its
events.  A
thread's state is its action index and, while it is blocked, the step
that resumes it (:attr:`SimThread.resume`).  The other steps keep what
they carry across their one wait in the processor's own slots, one set
per kind of wait (busy time, send, dispatch, compute, idle wait), since
no two waits of a processor overlap.

A step ``f(k, ...)`` returns ``True`` when it finished without waiting;
``k`` is then not called.  It returns ``False`` when it waits; ``k()``
runs once it is done.  Between waits a step runs straight through, so
events are queued in the order the code reads.

A step kept in a slot as a bound method, and a continuation carried
across a wait, refer back to the processor: a reference cycle.  A
timed wake-up whose only state is the processor is queued instead as
the plain function with the processor as the call's ``arg``
(:data:`_BUSY_OVER`, :data:`_CHAIN_OVER`); what stays cyclic,
:meth:`SimProcessor.release` clears once the run is over, failed runs
included, so a simulation is freed by reference counting
(docs/ARCHITECTURE.md, "Lifetime").
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple,
)

from repro.core.parameters import RemoteServicePolicy, SimulationParameters
from repro.des import Environment, Event, FirstOf, Store
from repro.des.events import PENDING, PROCESSED
from repro.sim.actions import Action, ActionKind
from repro.sim.messages import Message, MsgKind
from repro.sim.result import ProcessorStats
from repro.trace.events import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.barrier import BarrierCoordinator
    from repro.sim.network import Network

# Enum members read once or more per replayed event, bound as module
# globals: on CPython 3.11 reading ``SomeEnum.MEMBER`` costs ~0.1 us, a
# global read ~10 ns.  For the same reason the replay path reads
# ``env._now`` and ``event._state`` rather than the ``now`` and
# ``triggered`` properties, each a Python-level call on 3.11.
_ACT_COMPUTE = ActionKind.COMPUTE
_ACT_READ = ActionKind.REMOTE_READ
_ACT_WRITE = ActionKind.REMOTE_WRITE
_ACT_BARRIER = ActionKind.BARRIER
_ACT_MARK = ActionKind.MARK
_ACT_END = ActionKind.END
_NO_INTERRUPT = RemoteServicePolicy.NO_INTERRUPT
_INTERRUPT = RemoteServicePolicy.INTERRUPT
_POLL = RemoteServicePolicy.POLL
_MSG_REQUEST = MsgKind.REQUEST
_MSG_REPLY = MsgKind.REPLY
_MSG_WRITE = MsgKind.WRITE
_MSG_WRITE_ACK = MsgKind.WRITE_ACK
_MSG_ARRIVE = MsgKind.BARRIER_ARRIVE
_MSG_RELEASE = MsgKind.BARRIER_RELEASE
_EV_BARRIER_ENTER = EventKind.BARRIER_ENTER
_EV_BARRIER_EXIT = EventKind.BARRIER_EXIT
_EV_REMOTE_READ = EventKind.REMOTE_READ
_EV_REMOTE_WRITE = EventKind.REMOTE_WRITE
_new_tuple = tuple.__new__


class SimThread:
    """One replayed thread and what it is blocked on."""

    __slots__ = ("tid", "actions", "events", "idx", "resume", "target",
                 "timer", "sent", "deadline", "blocked_reason", "finished")

    def __init__(self, tid: int, actions: List[Action], begin: Callable[[], None]):
        self.tid = tid
        self.actions = actions
        #: the extrapolated trace of this thread
        self.events: List[TraceEvent] = []
        #: index of the action being replayed
        self.idx = 0
        #: the step that continues this thread when it next gets the CPU
        self.resume = begin
        #: the event whose trigger lets the thread run again, and the
        #: retry timer whose expiry also does
        self.target: Optional[Event] = None
        self.timer: Optional[Event] = None
        #: under a fault plan with timeouts, the last copy of the request
        #: this thread sent and the timeout its next wait gets
        self.sent: Optional[Message] = None
        self.deadline = 0.0
        #: why this thread is parked, when it is (a remote access past
        #: its retry budget, or a barrier its siblings never reach);
        #: surfaced in the watchdog's SimulationStalled diagnosis
        self.blocked_reason: str | None = None
        self.finished = False

    def runnable(self) -> bool:
        timer = self.timer
        return self.target._state != PENDING or (
            timer is not None and timer._state == PROCESSED
        )


class SimProcessor:
    """One simulated processor replaying its threads' actions."""

    # Slots, not an instance dict: past 30 attributes CPython 3.11 stops
    # sharing dict keys between instances, and every attribute access
    # on the replay path gets slower.
    __slots__ = (
        "env", "pid", "pp", "np", "network", "coordinator", "threads",
        "_assignment", "_msg_ids", "_parked", "inbox", "pending_replies",
        "stats", "_thread", "_tid", "out_events", "_ready", "_blocked",
        "_in_next", "_cpu_free", "finished", "actions_done", "_solo",
        "_call_in", "_call_at", "_stats_add", "_mips_ratio", "_policy",
        "_send_cost", "_obs", "_rxq_counter", "_faults", "_fault_plan",
        # What the steps that wait carry across their wait (see the
        # module docstring), each set before it is read:
        # busy time: continuation, durations and categories, start;
        "_busy_k", "_busy_d", "_busy_cat", "_busy_d2", "_busy_cat2", "_busy_t0",
        # a send: continuation and message; a remote access: its reply;
        "_send_k", "_send_msg", "_access_reply",
        # a dispatch: continuation and message;
        "_disp_k", "_disp_msg",
        # interrupt/poll compute: work left, slice start, racing inbox get;
        "_compute_left", "_compute_t0", "_compute_get",
        # the race of the last raced wait (a compute slice or serve turn);
        "_race",
        # waits that serve the inbox: continuation, own target or end
        # test, external waits, racing inbox get;
        "_serve_k", "_serve_target", "_serve_done", "_serve_waits", "_serve_get",
        # an idle wait or barrier episode: start, busy total, release.
        "_wait_t0", "_wait_busy0", "_barrier_release",
        # The steps that run once or more per event, bound once.
        "_k_built", "_k_reply_then", "_k_slice_over", "_k_interrupt_resume",
        "_k_own_relay", "_k_own_arrival", "_k_own_check",
        "_k_idle_over", "_k_direct_over", "_k_await_reply", "_k_access_done",
        "_k_action_done",
    )

    def __init__(
        self,
        env: Environment,
        pid: int,
        params: SimulationParameters,
        network: "Network",
        coordinator: "BarrierCoordinator",
        threads: Sequence[Tuple[int, List[Action]]],
        msg_ids,
        assignment: Sequence[int],
    ):
        """``threads`` are the ``(tid, actions)`` this processor hosts;
        ``assignment`` maps every thread to its processor."""
        self.env = env
        self.pid = pid
        self.pp = params.processor
        self.np = params.network
        self.network = network
        self.coordinator = coordinator
        self.threads = [
            SimThread(tid, actions, self._begin) for tid, actions in threads
        ]
        self._assignment = assignment
        self._msg_ids = msg_ids
        #: barrier id -> (local threads parked there, their release)
        self._parked: Dict[int, Tuple[int, Event]] = {}

        self.inbox: Store = Store(env)
        self.pending_replies: Dict[int, Event] = {}
        self.stats = ProcessorStats(pid=pid)
        #: the running thread, its id and its output trace
        self._thread = self.threads[0]
        self._tid = self._thread.tid
        self.out_events: List[TraceEvent] = self._thread.events
        #: threads that can run, in the order they became ready, and
        #: threads waiting on their ``target``, in the order they blocked
        self._ready: Deque[SimThread] = deque(self.threads)
        self._blocked: List[SimThread] = []
        #: whether :meth:`_next` is running a thread, and whether that
        #: thread gave up the CPU (blocked or finished) meanwhile
        self._in_next = False
        self._cpu_free = False
        self._race: Optional[FirstOf] = None
        #: set when every hosted thread reached THREAD_END
        self.finished = False
        #: replay progress: actions completed so far (the watchdog's
        #: per-processor progress token)
        self.actions_done = 0
        #: whether this processor hosts one thread, whose waits skip the
        #: scheduler round (:meth:`_wait`)
        self._solo = len(self.threads) == 1

        # Pre-bound hot-path helpers: the replay busies/unblocks once per
        # action, so shave the attribute chains off every step.
        self._call_in = env.call_in
        self._call_at = env.call_at
        self._stats_add = self.stats.add
        self._mips_ratio = self.pp.mips_ratio
        self._policy = self.pp.policy
        #: a message's sender-side busy time (:meth:`_send`)
        self._send_cost = self.pp.msg_build_time + self.np.comm_startup_time
        #: timeline recorder, or None when observation is off (the only
        #: cost every hook site pays then is one ``is None`` test)
        self._obs = env.obs
        self._rxq_counter = f"proc{pid}.rxq_depth"
        #: fault injector (None = ideal machine) and its plan; captured
        #: once so the fault-free replay pays one ``is None`` test
        self._faults = env.faults
        self._fault_plan = self._faults.plan if self._faults is not None else None

        # The steps that run once or more per event, bound once: binding
        # a method at every wait costs ~50 ns.  Each is a reference
        # cycle until release() clears it.
        self._k_built = self._built
        self._k_reply_then = self._reply_then
        self._k_slice_over = self._slice_over
        self._k_interrupt_resume = self._interrupt_resume
        self._k_own_relay = self._own_relay
        self._k_own_arrival = self._own_arrival
        self._k_own_check = self._own_check
        self._k_idle_over = self._idle_over
        self._k_direct_over = self._direct_over
        self._k_await_reply = self._await_reply
        self._k_access_done = self._access_done
        self._k_action_done = self._action_done

    # -- delivery hook for the network --------------------------------------------

    def deliver(self, msg: Message) -> None:
        self.inbox.put_nowait(msg)
        if self._obs is not None:
            self._obs.counter(
                self._rxq_counter, self.env._now, len(self.inbox.items)
            )

    def release(self) -> None:
        """Clear what refers back to this processor once the run is
        over: the steps bound once, the continuations its last waits
        carried, a race a failed run left pending, its threads' resume
        steps and its inbox's waiting getter.  The processor then holds
        no reference cycle; its ``stats``, ``finished``, ``actions_done``
        and threads' ``events`` stay readable."""
        self._k_built = self._k_reply_then = self._k_slice_over = None
        self._k_interrupt_resume = self._k_own_relay = self._k_own_arrival = None
        self._k_own_check = self._k_idle_over = self._k_direct_over = None
        self._k_await_reply = self._k_access_done = self._k_action_done = None
        self._busy_k = self._send_k = self._disp_k = None
        self._serve_k = self._serve_done = None
        if self._race is not None:
            # Still pending when a run failed: the race and its children
            # refer to each other, and it holds the step that ends it.
            self._race.drop()
        for thread in self.threads:
            thread.resume = None
        self.inbox.drop_waiters()

    # -- bookkeeping ----------------------------------------------------------

    def _record(
        self,
        kind: EventKind,
        barrier_id: int = -1,
        owner: int = -1,
        nbytes: int = 0,
        collection: str = "",
        tag: str = "",
    ) -> None:
        # tuple.__new__ skips the Python-level __new__ a class call runs.
        self.out_events.append(
            _new_tuple(
                TraceEvent,
                (
                    self.env._now, self._tid, kind, barrier_id, owner, nbytes,
                    collection, tag,
                ),
            )
        )

    def _obs_span(self, category: str, t0: float, t1: float) -> None:
        """Record a closed busy span (observation is on)."""
        self._obs.span(self.pid, category, t0, t1)
        self._obs.counter(f"proc{self.pid}.busy_us", t1, self.stats.busy_total)

    def _busy(self, k: Callable[[], None], duration: float, category: str) -> bool:
        """Spend ``duration`` busy on ``category`` (nothing when <= 0)."""
        if duration > 0:
            self._busy_k = k
            self._busy_d = duration
            self._busy_cat = category
            self._busy_t0 = self.env._now
            self._call_in(duration, _BUSY_OVER, self)
            return False
        return True

    def _busy_over(self) -> None:
        category, duration = self._busy_cat, self._busy_d
        stats = self.stats
        stats.categories[category] += duration
        stats.busy_total += duration
        if self._obs is not None:
            self._obs_span(category, self._busy_t0, self.env._now)
        self._busy_k()

    def _busy_chain(
        self, k: Callable[[], None], d1: float, cat1: str, d2: float, cat2: str
    ) -> bool:
        """Spend ``d1`` busy on ``cat1`` and then ``d2`` on ``cat2`` as one
        queue entry.

        The chain ends at ``now + d1 + d2`` summed left to right, the
        float one wake-up per step would reach; a duration <= 0 is
        skipped as a lone step would be.  After the entry each step is
        charged in order and, when observing, recorded as its own span
        with its ``busy_us`` sample at the step's own end.  Fold only
        steps between which this processor waits on nothing but its own
        busy time and does nothing another process can see (send,
        record, succeed).  The folded entry takes its queue sequence
        number when the chain starts, so an entry another process queues
        mid-chain for exactly the chain's end now fires after it, not
        before: keep a fold only where the replay goldens and the paper
        tables stay byte-identical (docs/ARCHITECTURE.md).
        """
        if not (d1 > 0 and d2 > 0):
            # One step left: the same queue entry as the chain's.
            if d1 > 0:
                return self._busy(k, d1, cat1)
            return self._busy(k, d2, cat2)
        t0 = self.env._now
        self._busy_k = k
        self._busy_d, self._busy_cat = d1, cat1
        self._busy_d2, self._busy_cat2 = d2, cat2
        self._busy_t0 = t0
        self._call_at(t0 + d1 + d2, _CHAIN_OVER, self)
        return False

    def _chain_over(self) -> None:
        d1, cat1, d2, cat2 = self._busy_d, self._busy_cat, self._busy_d2, self._busy_cat2
        stats = self.stats
        stats.categories[cat1] += d1
        stats.busy_total += d1
        if self._obs is not None:
            t = self._busy_t0
            self._obs_span(cat1, t, t + d1)
        stats.categories[cat2] += d2
        stats.busy_total += d2
        if self._obs is not None:
            t += d1
            self._obs_span(cat2, t, t + d2)
        self._busy_k()

    # -- the thread scheduler ---------------------------------------------------

    def start(self, _arg: None) -> None:
        """Begin the replay (the processor's start call)."""
        self._next()

    def _next(self) -> None:
        """Hand the CPU on: run ready threads until one waits.

        Called whenever the CPU is free: at the start, when the running
        thread blocks or finishes, and when an idle wait ends.  Threads
        whose wait is over first rejoin the ready queue in the order
        they blocked; the next ready thread then runs at the same
        instant.  A thread that gives up the CPU while this loop runs
        it only sets ``_cpu_free``, so threads switching at one instant
        take turns of the loop, not nested calls.  With none ready the
        processor serves its inbox until one can run
        (:meth:`_await_own`, or :meth:`_serve_until` while a retry timer
        or a second thread also waits); that idle time is its
        ``comm_wait``, since some thread waits on a reply.  With no
        thread left, the replay is done: ``finished`` is set and the
        processor serves its inbox for the others.
        """
        ready = self._ready
        self._in_next = True
        while True:
            if self._blocked:
                still = []
                for thread in self._blocked:
                    if thread.runnable():
                        ready.append(thread)
                    else:
                        still.append(thread)
                self._blocked = still
            if not ready:
                break
            thread = self._thread = ready.popleft()
            self._tid = thread.tid
            self.out_events = thread.events
            self._cpu_free = False
            thread.resume()
            if not self._cpu_free:
                self._in_next = False
                return
        self._in_next = False
        blocked = self._blocked
        if not blocked:
            # Keep serving remote requests for threads that are still running.
            self.stats.end_time = self.env._now
            self.finished = True
            self._serve_forever()
            return
        self._wait_t0, self._wait_busy0 = self.env._now, self.stats.busy_total
        if len(blocked) == 1 and blocked[0].timer is None:
            waited = not self._await_own(self._k_idle_over, blocked[0].target)
        else:
            # A blocked thread's target triggers only through this
            # processor's dispatch, so only a retry timer ends the wait
            # without a message.
            waited = not self._serve_until(
                self._k_idle_over,
                lambda: any(t.runnable() for t in blocked),
                tuple(t.timer for t in blocked if t.timer is not None),
            )
        if not waited:
            self._idle_over()

    def _idle_over(self) -> None:
        self._charge_comm_wait()
        self._next()

    def _direct_over(self) -> None:
        """The one thread's direct wait (:meth:`_wait`) is over."""
        self._charge_comm_wait()
        self._thread.resume()

    def _charge_comm_wait(self) -> None:
        """Charge the idle wait since ``_wait_t0`` as ``comm_wait``."""
        t0 = self._wait_t0
        self.stats.comm_wait += (self.env._now - t0) - (
            self.stats.busy_total - self._wait_busy0
        )
        if self._obs is not None:
            # Nested busy spans are the requests serviced while idle.
            self._obs.span(self.pid, "comm_wait", t0, self.env._now)

    def _give_up_cpu(self) -> None:
        """The running thread blocked or finished."""
        if self._in_next:
            self._cpu_free = True
        else:
            self._next()

    def _wait(
        self, target: Event, timer: Optional[Event], resume: Callable[[], None]
    ) -> None:
        """The running thread gives up the CPU until one of this
        processor's own events, ``target``, triggers or ``timer``
        expires; ``resume`` continues it then.

        The one thread of a processor, waiting outside :meth:`_next`
        with no timer on a pending target, waits on it directly: the
        same :meth:`_await_own` wait and ``comm_wait`` charge that
        :meth:`_next` would reach after its scan, without the scan
        before the wait and after it."""
        thread = self._thread
        thread.target, thread.timer, thread.resume = target, timer, resume
        if (
            self._solo and timer is None and target._state == PENDING
            and not self._in_next
        ):
            self._wait_t0, self._wait_busy0 = self.env._now, self.stats.busy_total
            self._await_own(self._k_direct_over, target)
            return
        self._blocked.append(thread)
        self._give_up_cpu()

    def _serve_forever(self) -> None:
        self.inbox.get_then(self._serve_one)

    def _serve_one(self, msg: Message) -> None:
        if self._dispatch(self._serve_forever, msg):
            self._serve_forever()

    # -- the replay of one thread -------------------------------------------------

    def _begin(self) -> None:
        self._record(EventKind.THREAD_BEGIN)
        self._run_actions()

    def _action_done(self) -> None:
        """Continue the running thread after an action that waited."""
        self.actions_done += 1
        self._thread.idx += 1
        self._run_actions()

    def _run_actions(self) -> None:
        """Replay the running thread's actions from its index until one
        waits, or to its end."""
        thread = self._thread
        actions = thread.actions
        i = thread.idx
        while i < len(actions):
            thread.idx = i
            action = actions[i]
            kind = action.kind
            if kind is _ACT_COMPUTE:
                if not self._compute(action.duration):
                    return
            elif kind is _ACT_READ:
                if not self._remote_access(action, False):
                    return
            elif kind is _ACT_WRITE:
                if not self._remote_access(action, True):
                    return
            elif kind is _ACT_BARRIER:
                self._record(_EV_BARRIER_ENTER, barrier_id=action.barrier_id)
                if not self._arrive(action.barrier_id):
                    return
                self._record(_EV_BARRIER_EXIT, barrier_id=action.barrier_id)
            elif kind is _ACT_MARK:
                self._record(EventKind.MARK, tag=action.label)
                if self._obs is not None:
                    self._obs.instant(
                        self.pid, "mark", self.env._now, tag=action.label
                    )
            elif kind is _ACT_END:
                break
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unhandled action {action}")
            self.actions_done += 1
            i += 1
        self._record(EventKind.THREAD_END)
        thread.finished = True
        if self._obs is not None:
            self._obs.instant(self.pid, "thread_end", self.env._now)
        self._give_up_cpu()

    # -- barriers ---------------------------------------------------------------

    def _arrive(self, bid: int) -> bool:
        """A hosted thread reaches barrier ``bid``.

        The thread parks until the last local thread arrives; that one
        runs the processor through the episode and releases the parked
        ones.
        """
        arrived, release = self._parked.pop(bid, (0, None))
        arrived += 1
        if arrived == len(self.threads):
            return self._participate(bid, release)
        if release is None:
            release = Event(self.env)
        self._parked[bid] = (arrived, release)
        self._thread.blocked_reason = (
            f"parked at barrier {bid} "
            f"({arrived}/{len(self.threads)} local threads arrived)"
        )
        self._wait(release, None, self._unpark)
        return False

    def _unpark(self) -> None:
        self._thread.blocked_reason = None
        self._barrier_done()

    def _barrier_done(self) -> None:
        thread = self._thread
        self._record(_EV_BARRIER_EXIT, barrier_id=thread.actions[thread.idx].barrier_id)
        self._action_done()

    def _participate(self, bid: int, release: Optional[Event]) -> bool:
        """Run this processor through barrier episode ``bid``, then
        resolve ``release``, the wake-up of the local threads parked
        there (if any)."""
        self._wait_t0, self._wait_busy0 = self.env._now, self.stats.busy_total
        self._barrier_release = release
        if self.coordinator.participate(self._participated, self, bid):
            self._episode_over()
            return True
        return False

    def _participated(self) -> None:
        self._episode_over()
        self._barrier_done()

    def _episode_over(self) -> None:
        t0 = self._wait_t0
        self.stats.barrier_wait += (self.env._now - t0) - (
            self.stats.busy_total - self._wait_busy0
        )
        if self._obs is not None:
            # The whole episode (enter..exit); busy spans recorded
            # while servicing requests inside it nest within.
            self._obs.span(self.pid, "barrier_wait", t0, self.env._now)
        if self._barrier_release is not None:
            self._barrier_release.resolve()

    # -- compute under the three service policies -----------------------------------

    def _compute(self, duration: float) -> bool:
        scaled = duration * self._mips_ratio
        if self._faults is not None:
            factor = self._faults.straggle_factor()
            if factor > 1.0:
                # A transient straggler interval (OS noise, throttling,
                # a co-tenant): this one action runs slowed.
                extra = scaled * (factor - 1.0)
                scaled += extra
                self.stats.stragglers += 1
                self.stats.straggler_time += extra
                self._faults.note_straggler_time(extra)
                if self._obs is not None:
                    self._obs.instant(
                        self.pid,
                        "fault.straggler",
                        self.env._now,
                        factor=factor,
                        extra_us=extra,
                    )
        policy = self._policy
        # A compute of at most _EPS is too short to slice, so every
        # policy charges it as no_interrupt does.
        if policy is _NO_INTERRUPT or scaled <= self._EPS:
            return self._busy(self._k_action_done, scaled, "compute")
        self._compute_left = scaled
        if policy is _INTERRUPT:
            self._interrupt_slice()
        elif policy is _POLL:
            self._poll_slice()
        else:  # pragma: no cover - exhaustive
            raise AssertionError(policy)
        return False

    #: Compute remainders below this are float residue, not real work
    #: (1e-9 us = 1 femtosecond; far below any model parameter).
    _EPS = 1e-9

    def _interrupt_slice(self) -> None:
        """Compute what is left until done or a message interrupts."""
        if self.inbox.items:
            # Anything already queued interrupts immediately.
            self.inbox.get_then(self._interrupted_by_queued)
            return
        self._compute_t0 = self.env._now
        finish = self.env.timeout(self._compute_left)
        get_ev = self._compute_get = self.inbox.get()
        race = self._race = FirstOf(self.env, (finish, get_ev))
        race.callbacks.append(self._k_slice_over)

    def _interrupted_by_queued(self, msg: Message) -> None:
        self.stats.interrupts += 1
        if self._dispatch(self._k_interrupt_resume, msg, True):
            self._interrupt_resume()

    def _slice_over(self, _ev: Event) -> None:
        now = self.env._now
        start = self._compute_t0
        self._compute_left -= now - start
        self._stats_add("compute", now - start)
        if self._obs is not None and now > start:
            self._obs_span("compute", start, now)
        get_ev = self._compute_get
        if get_ev._state != PENDING:
            self.stats.interrupts += 1
            if not self._dispatch(
                self._k_interrupt_resume, get_ev._value, True
            ):
                return
        else:
            self.inbox.cancel(get_ev)
        self._interrupt_resume()

    def _interrupt_resume(self) -> None:
        if self._compute_left > self._EPS:
            self._interrupt_slice()
        else:
            self._action_done()

    def _poll_slice(self) -> None:
        """Compute one poll interval's chunk, then poll the inbox."""
        chunk = min(self.pp.poll_interval, self._compute_left)
        self._compute_left -= chunk
        # Not one chain: folding the poll overhead into the chunk
        # moves same-time ties (fig8's poll@1000us series changes).
        if self._busy(self._poll_overhead, chunk, "compute"):
            self._poll_overhead()

    def _poll_overhead(self) -> None:
        if self._busy(self._polled, self.pp.poll_overhead, "poll_overhead"):
            self._polled()

    def _polled(self) -> None:
        self.stats.polls += 1
        self._poll_drain()

    def _poll_drain(self) -> None:
        if self.inbox.items:
            self.inbox.get_then(self._poll_serve)
        elif self._compute_left > self._EPS:
            self._poll_slice()
        else:
            self._action_done()

    def _poll_serve(self, msg: Message) -> None:
        if self._dispatch(self._poll_drain, msg):
            self._poll_drain()

    # -- remote access protocol ---------------------------------------------------

    def _remote_access(self, action: Action, write: bool) -> bool:
        owner = action.owner
        if owner == self._tid:
            raise ValueError(
                f"thread {owner}: remote access to itself in the trace"
            )
        kind = _EV_REMOTE_WRITE if write else _EV_REMOTE_READ
        self._record(kind, -1, owner, action.nbytes, action.label)
        if self._obs is not None:
            self._obs.instant(
                self.pid,
                "remote_write" if write else "remote_read",
                self.env._now,
                owner=owner,
                nbytes=action.nbytes,
            )
        dst = self._assignment[owner]
        if dst == self.pid:
            # The owner shares this processor: a local access, no message.
            return self._busy(
                self._k_action_done, self.pp.request_service_time, "service"
            )
        mid = next(self._msg_ids)
        reply_ev = Event(self.env)
        self.pending_replies[mid] = reply_ev
        # Positional Message fields: kind, src, dst, nbytes, msg_id,
        # barrier_id, reply_nbytes.
        if write:
            # The write carries the data out; the ack is small.
            msg = Message(_MSG_WRITE, self.pid, dst, action.nbytes, mid, -1, 0)
        else:
            # The request is small; the reply carries the data back.
            msg = Message(
                _MSG_REQUEST, self.pid, dst, self.np.request_nbytes, mid, -1,
                action.nbytes,
            )
        plan = self._fault_plan
        if plan is not None and plan.request_timeout > 0.0:
            thread = self._thread
            thread.target, thread.sent = reply_ev, msg
            thread.deadline = plan.request_timeout
            then = self._await_reply_retry
        else:
            self._access_reply = reply_ev
            then = self._k_await_reply
        if self._send(then, msg, "comm_overhead"):
            then()
        return False

    def _await_reply(self) -> None:
        self._wait(self._access_reply, None, self._k_access_done)

    def _access_done(self) -> None:
        self.stats.remote_accesses += 1
        self.actions_done += 1
        self._thread.idx += 1
        self._run_actions()

    def _await_reply_retry(self) -> None:
        """Wait for a reply under the timeout/bounded-retry protocol.

        Each timeout retransmits the request (same ``msg_id``, so a
        slow original reply still completes the access) with the
        timeout stretched by ``retry_backoff``.  When the retry budget
        is exhausted the access is abandoned: the thread parks with a
        ``blocked_reason`` and waits indefinitely — on a fully
        partitioned route the watchdog then raises
        :class:`~repro.des.engine.SimulationStalled` naming it.  The
        waiting thread gives up the CPU; with k > 1 threads a timer
        that expires while a sibling runs is acted on at the next
        switch.  The running thread carries the access across its
        waits: its reply event (``target``), the last copy sent
        (``sent``, whose ``attempt`` counts the timeouts so far) and
        the next timeout (``deadline``); the access is the thread's
        current action.
        """
        thread = self._thread
        self._wait(
            thread.target, self.env.timeout(thread.deadline), self._retry_woken
        )

    def _retry_woken(self) -> None:
        thread = self._thread
        if thread.target._state != PENDING:
            self._access_done()
            return
        assert thread.timer.processed
        plan = self._fault_plan
        msg = thread.sent
        owner = thread.actions[thread.idx].owner
        attempt = msg.attempt + 1
        self.stats.timeouts += 1
        if self._obs is not None:
            self._obs.instant(
                self.pid,
                "fault.timeout",
                self.env._now,
                owner=owner,
                msg_id=msg.msg_id,
                attempt=attempt,
            )
        if attempt > plan.max_retries:
            self.stats.retry_giveups += 1
            write = msg.kind is _MSG_WRITE
            thread.blocked_reason = (
                f"remote {'write' if write else 'read'} to proc {msg.dst} "
                f"gave up after {attempt} timeouts "
                f"(msg {msg.msg_id}, {plan.max_retries} retries)"
            )
            if self._obs is not None:
                self._obs.instant(
                    self.pid,
                    "fault.retry_giveup",
                    self.env._now,
                    owner=owner,
                    msg_id=msg.msg_id,
                )
            self._wait(thread.target, None, self._retry_gave_up)
            return
        self.stats.retries += 1
        if self._obs is not None:
            self._obs.instant(
                self.pid,
                "fault.retry",
                self.env._now,
                owner=owner,
                msg_id=msg.msg_id,
                attempt=attempt,
            )
        thread.deadline *= plan.retry_backoff
        thread.sent = Message(
            msg.kind, msg.src, msg.dst, msg.nbytes, msg.msg_id, -1,
            msg.reply_nbytes, attempt=attempt,
        )
        if self._send(self._await_reply_retry, thread.sent, "comm_overhead"):
            self._await_reply_retry()

    def _retry_gave_up(self) -> None:
        self._thread.blocked_reason = None
        self._access_done()

    def _send(self, k: Callable[[], None], msg: Message, category: str) -> bool:
        """Build and inject a message (sender-side busy costs)."""
        cost = self._send_cost
        if cost > 0:
            self._send_k = k
            self._send_msg = msg
            self._busy(self._k_built, cost, category)
            return False
        self._send_raw(msg)
        return True

    def _built(self) -> None:
        self._send_raw(self._send_msg)
        self._send_k()

    def _send_raw(self, msg: Message) -> None:
        """Inject a message with no sender-side cost.

        Barrier synchronisation messages use this: their processor-side
        costs are the barrier model's own parameters (EntryTime,
        CheckTime, ModelTime, ExitTime — Table 1), and BarrierByMsgs only
        adds the wire transfer time.  Charging the remote-access
        CommStartupTime per barrier message would make a 32-processor
        linear barrier cost milliseconds, contradicting the paper's
        observation that 650 barriers were "insignificant" for Grid.
        """
        self.network.send(msg)
        self.stats.messages_sent += 1

    # -- message handling ------------------------------------------------------------

    def _obs_rxq(self, _arg: None = None) -> None:
        """Sample the receive-queue depth now (observing)."""
        self._obs.counter(self._rxq_counter, self.env._now, len(self.inbox.items))

    def _obs_rxq_after(self, delay: float) -> None:
        """Sample the receive-queue depth ``delay`` from now (observing).

        Stands in for the sample a step-by-step chain takes after its
        leading step: a zero-work call queued where that step's own
        wake-up would be sees the queue at the same ``(time, priority,
        seq)`` position.  It exists only while observing and changes no
        other entry's relative order.
        """
        self._call_in(delay, self._obs_rxq)

    def _dispatch(
        self, k: Callable[[], None], msg: Message, interrupted: bool = False
    ) -> bool:
        """Handle one received message (in this processor's context).

        ``interrupted``: the message preempted computation, so
        ``interrupt_overhead`` is paid first; it leads a request's service
        in one busy chain.
        """
        kind = msg.kind
        lead = self.pp.interrupt_overhead if interrupted else 0.0
        if kind is _MSG_REQUEST or kind is _MSG_WRITE:
            self.stats.messages_received += 1
            if self._obs is not None:
                if lead > 0:
                    self._obs_rxq_after(lead)
                else:
                    self._obs_rxq()
            self._disp_k = k
            self._disp_msg = msg
            # [Interrupt overhead,] service: one busy chain.  The reply's
            # build and start-up stay a step of their own: folding them
            # in as well moves same-time ties between the reply's
            # injection and other traffic (fig5 and fig8 change).
            if self._busy_chain(
                self._k_reply_then,
                lead, "interrupt_overhead",
                self.pp.request_service_time, "service",
            ):
                return self._reply()
            return False
        if lead > 0:
            self._disp_k = k
            self._disp_msg = msg
            if not self._busy(self._handle_then, lead, "interrupt_overhead"):
                return False
        return self._handle(k, msg)

    def _handle_then(self) -> None:
        if self._handle(self._disp_k, self._disp_msg):
            self._disp_k()

    def _handle(self, k: Callable[[], None], msg: Message) -> bool:
        """Handle a reply, an acknowledgement or a barrier message."""
        self.stats.messages_received += 1
        if self._obs is not None:
            self._obs_rxq()
        kind = msg.kind
        if kind is _MSG_REPLY or kind is _MSG_WRITE_ACK:
            ev = self.pending_replies.pop(msg.msg_id, None)
            if ev is None:
                if self._faults is not None:
                    # A late duplicate: the access already completed via
                    # an earlier copy (retransmission or network
                    # duplication).  Tolerate and count it.
                    self.stats.late_replies += 1
                    if self._obs is not None:
                        self._obs.instant(
                            self.pid,
                            "fault.late_reply",
                            self.env._now,
                            msg_id=msg.msg_id,
                        )
                    return True
                raise RuntimeError(
                    f"processor {self.pid}: unexpected {msg!r} "
                    "(no pending request with that id)"
                )
            ev.resolve(msg)
            return True
        if kind is _MSG_ARRIVE:
            return self.coordinator.on_arrive(k, self, msg)
        if kind is _MSG_RELEASE:
            self.coordinator.on_release(self, msg)
            return True
        raise AssertionError(f"unhandled message kind {kind}")  # pragma: no cover

    def _reply_then(self) -> None:
        if self._reply():
            self._disp_k()

    def _reply(self) -> bool:
        """Answer the request being dispatched, after its service."""
        msg = self._disp_msg
        self.stats.requests_served += 1
        if msg.kind is _MSG_REQUEST:
            reply = Message(
                _MSG_REPLY, self.pid, msg.src, msg.reply_nbytes, msg.msg_id
            )
        else:
            reply = Message(_MSG_WRITE_ACK, self.pid, msg.src, 0, msg.msg_id)
        return self._send(self._disp_k, reply, "service")

    # -- waits that serve the inbox --------------------------------------------------

    def _await_own(self, k: Callable[[], None], target: Event) -> bool:
        """Wait for an event that only this processor's dispatch triggers.

        Reply/ack events and the message-mode barrier events are
        triggered by :meth:`_dispatch` running on this processor, with
        :meth:`~repro.des.events.Event.resolve` (never queued), so while
        the processor waits only an inbox arrival can end the wait.
        The arrival is awaited through a relay: the inbox get's call
        (:meth:`_own_relay`) queues the step that dispatches it, which
        runs one queue hop later, behind any same-time entry queued
        before the get was served.  Dropping that hop reorders
        same-time ties (the ``ideal`` preset moves most).
        """
        if target._state != PENDING:
            return True
        self._serve_k = k
        self._serve_target = target
        self.inbox.get_then(self._k_own_relay)
        return False

    def _own_relay(self, msg: Message) -> None:
        self._call_in(0.0, self._k_own_arrival, msg)

    def _own_arrival(self, msg: Message) -> None:
        if self._dispatch(self._k_own_check, msg):
            self._own_check()

    def _own_check(self) -> None:
        if self._serve_target._state != PENDING:
            self._serve_k()
        else:
            self.inbox.get_then(self._k_own_relay)

    def _serve_until(
        self,
        k: Callable[[], None],
        done: Callable[[], bool],
        waits: Tuple[Event, ...],
    ) -> bool:
        """Serve the inbox until ``done()`` holds.

        This is the "process messages while waiting" behaviour the paper
        requires of every wait state.  Each turn waits for the first of
        ``waits`` or an inbox arrival; ``waits`` are the events that can
        end the wait without a message: a flag or hardware barrier
        release another process triggers, or the blocked threads' retry
        timers.  A :class:`~repro.des.events.Timeout` is born TRIGGERED
        (= scheduled), so ``done`` must test ``processed`` for a timer.
        Waits with nothing but this processor's own events to wait for
        use :meth:`_await_own`.
        """
        if done():
            return True
        self._serve_k = k
        self._serve_done = done
        self._serve_waits = waits
        self._serve_turn()
        return False

    def _serve_turn(self) -> None:
        get_ev = self._serve_get = self.inbox.get()
        race = self._race = FirstOf(self.env, self._serve_waits + (get_ev,))
        race.callbacks.append(self._serve_woken)

    def _serve_woken(self, _ev: Event) -> None:
        get_ev = self._serve_get
        if get_ev._state != PENDING:
            if not self._dispatch(self._serve_check, get_ev._value):
                return
        else:
            self.inbox.cancel(get_ev)
        self._serve_check()

    def _serve_check(self) -> None:
        if self._serve_done():
            self._serve_k()
        else:
            self._serve_turn()


#: The busy-time wake-ups, queued as plain functions with the processor
#: as the call's ``arg``: a bound method cached in a slot would be one
#: more reference cycle, and binding one at every wait costs ~50 ns.
_BUSY_OVER = SimProcessor._busy_over
_CHAIN_OVER = SimProcessor._chain_over
