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
processors) runs them non-preemptively in one process: a thread keeps
the CPU until it waits on a reply or a barrier, and the next ready
thread takes over at the same instant.  Only when no thread is ready
does the processor wait and serve its inbox.  An access to a thread on
the same processor costs ``request_service_time`` and sends no
message.  At a barrier, threads park until the last local one arrives;
that one runs the barrier protocol for the processor.

After its replay finishes, a processor keeps servicing incoming requests
forever (the pC++ runtime never stops serving remote accesses), so
threads that finish early still answer the stragglers.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import (
    TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.core.parameters import RemoteServicePolicy, SimulationParameters
from repro.des import Environment, Event, FirstOf, Store, Timeout
from repro.sim.actions import Action, ActionKind
from repro.sim.messages import Message, MsgKind
from repro.sim.result import ProcessorStats
from repro.trace.events import EventKind, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.barrier import BarrierCoordinator
    from repro.sim.network import Network

# Enum members read once or more per replayed event, bound as module
# globals: on CPython 3.11 reading ``SomeEnum.MEMBER`` costs ~0.1 us, a
# global read ~10 ns.
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

#: What a hosted thread yields to :meth:`SimProcessor.run` to give
#: up the CPU; it never reaches the engine.
_SWITCH = object()


class SimThread:
    """One replayed thread and what it is blocked on."""

    __slots__ = ("tid", "actions", "events", "gen", "target", "timer",
                 "blocked_reason", "finished")

    def __init__(self, tid: int, actions: List[Action]):
        self.tid = tid
        self.actions = actions
        #: the extrapolated trace of this thread
        self.events: List[TraceEvent] = []
        self.gen: Optional[Generator] = None
        #: the event whose trigger lets the thread run again, and the
        #: retry timer whose expiry also does
        self.target: Optional[Event] = None
        self.timer: Optional[Event] = None
        #: why this thread is parked, when it is (a remote access past
        #: its retry budget, or a barrier its siblings never reach);
        #: surfaced in the watchdog's SimulationStalled diagnosis
        self.blocked_reason: str | None = None
        self.finished = False

    def runnable(self) -> bool:
        timer = self.timer
        return self.target.triggered or (timer is not None and timer.processed)


class SimProcessor:
    """One simulated processor replaying its threads' actions."""

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
        self.threads = [SimThread(tid, actions) for tid, actions in threads]
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
        #: fires when every hosted thread reached THREAD_END
        self.done: Event = Event(env)
        #: replay progress: actions completed so far (the watchdog's
        #: per-processor progress token)
        self.actions_done = 0

        # Pre-bound hot-path helpers: the replay loop busies/unblocks once
        # per action, so shave the attribute chains off every step.
        self._timeout = partial(Timeout, env)
        self._timeout_at = env.timeout_at
        self._stats_add = self.stats.add
        self._mips_ratio = self.pp.mips_ratio
        self._policy = self.pp.policy
        #: timeline recorder, or None when observation is off (the only
        #: cost every hook site pays then is one ``is None`` test)
        self._obs = env.obs
        self._rxq_counter = f"proc{pid}.rxq_depth"
        #: fault injector (None = ideal machine) and its plan; captured
        #: once so the fault-free replay pays one ``is None`` test
        self._faults = env.faults
        self._fault_plan = self._faults.plan if self._faults is not None else None

    # -- delivery hook for the network --------------------------------------------

    def deliver(self, msg: Message) -> None:
        self.inbox.put_nowait(msg)
        if self._obs is not None:
            self._obs.counter(
                self._rxq_counter, self.env.now, len(self.inbox.items)
            )

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
        self.out_events.append(
            TraceEvent(
                self.env.now, self._tid, kind, barrier_id, owner, nbytes,
                collection, tag,
            )
        )

    def _obs_span(self, category: str, t0: float, t1: float) -> None:
        """Record a closed busy span (observation is on)."""
        self._obs.span(self.pid, category, t0, t1)
        self._obs.counter(f"proc{self.pid}.busy_us", t1, self.stats.busy_total)

    def _busy(self, duration: float, category: str, *then) -> Generator:
        """Spend ``duration`` busy on ``category``, then each
        ``(duration, category)`` step of ``then``, as one queued event.

        The chain ends at ``now + d1 + d2 + ...`` summed left to right,
        the float one timeout per step would reach; durations <= 0 are
        skipped as a lone step would be.  After the event each step is
        charged in order and, when observing, recorded as its own span
        with its ``busy_us`` sample at the step's own end.  Fold only
        steps between which this processor waits on nothing but its own
        busy time and does nothing another process can see (send,
        record, succeed).  The folded event takes its queue sequence
        number when the chain starts, so an event another process queues
        mid-chain for exactly the chain's end now fires after it, not
        before: keep a fold only where the replay goldens and the paper
        tables stay byte-identical (docs/ARCHITECTURE.md).
        """
        if not then:
            if duration > 0:
                t0 = self.env.now
                yield self._timeout(duration)
                self._stats_add(category, duration)
                if self._obs is not None:
                    self._obs_span(category, t0, self.env.now)
            return
        steps = [step for step in ((duration, category),) + then if step[0] > 0]
        if not steps:
            return
        t = t0 = self.env.now
        for d, _ in steps:
            t += d
        yield self._timeout_at(t)
        t = t0
        for d, cat in steps:
            self._stats_add(cat, d)
            if self._obs is not None:
                self._obs_span(cat, t, t + d)
                t += d

    # -- the replay driver ----------------------------------------------------

    def run(self) -> Generator:
        """The processor's process: run the hosted threads
        non-preemptively, then serve requests forever.

        The running thread's events pass through to the engine until it
        yields :data:`_SWITCH`; the next ready thread then runs at the
        same instant.  Threads whose wait is over rejoin the ready queue
        in the order they blocked.  With none ready the processor serves
        its inbox until one can run (:meth:`_serve_until`, or
        :meth:`_await_own` for one thread without a retry timer); that
        idle time is its ``comm_wait``, since some thread waits on a
        reply.
        """
        for thread in self.threads:
            thread.gen = self._replay(thread)
        ready = deque(self.threads)
        blocked: List[SimThread] = []
        while ready or blocked:
            if ready:
                thread = self._thread = ready.popleft()
                self._tid = thread.tid
                self.out_events = thread.events
                send, value = thread.gen.send, None
                while True:
                    try:
                        ev = send(value)
                    except StopIteration:
                        break
                    if ev is _SWITCH:
                        blocked.append(thread)
                        break
                    value = yield ev
            else:
                t0, busy0 = self.env.now, self.stats.busy_total
                if len(blocked) == 1 and blocked[0].timer is None:
                    # Every reply wait of a one-thread processor without
                    # a retry timer: the hot wait, kept specialised.
                    yield from self._await_own(blocked[0].target)
                else:
                    # A blocked thread's target triggers only through
                    # this processor's dispatch, so only a retry timer
                    # ends the wait without a message.
                    yield from self._serve_until(
                        lambda: any(t.runnable() for t in blocked),
                        tuple(t.timer for t in blocked if t.timer is not None),
                    )
                self.stats.comm_wait += (self.env.now - t0) - (
                    self.stats.busy_total - busy0
                )
                if self._obs is not None:
                    # Nested busy spans are the requests serviced
                    # while idle.
                    self._obs.span(self.pid, "comm_wait", t0, self.env.now)
            still = []
            for thread in blocked:
                if thread.runnable():
                    ready.append(thread)
                else:
                    still.append(thread)
            blocked = still
        # Keep serving remote requests for threads that are still running.
        self.stats.end_time = self.env.now
        self.done.succeed(self.env.now)
        while True:
            msg = yield self.inbox.get()
            yield from self._dispatch(msg)

    def _replay(self, thread: SimThread) -> Generator:
        """Replay one thread's actions."""
        self._record(EventKind.THREAD_BEGIN)
        for action in thread.actions:
            if action.kind is _ACT_COMPUTE:
                yield from self._compute(action.duration)
            elif action.kind is _ACT_READ:
                yield from self._remote_access(action, write=False)
            elif action.kind is _ACT_WRITE:
                yield from self._remote_access(action, write=True)
            elif action.kind is _ACT_BARRIER:
                self._record(_EV_BARRIER_ENTER, barrier_id=action.barrier_id)
                yield from self._arrive(action.barrier_id)
                self._record(_EV_BARRIER_EXIT, barrier_id=action.barrier_id)
            elif action.kind is _ACT_MARK:
                self._record(EventKind.MARK, tag=action.label)
                if self._obs is not None:
                    self._obs.instant(
                        self.pid, "mark", self.env.now, tag=action.label
                    )
            elif action.kind is _ACT_END:
                break
            else:  # pragma: no cover - exhaustive
                raise AssertionError(f"unhandled action {action}")
            self.actions_done += 1
        self._record(EventKind.THREAD_END)
        thread.finished = True
        if self._obs is not None:
            self._obs.instant(self.pid, "thread_end", self.env.now)

    def _wait(self, target: Event, timer: Optional[Event] = None) -> Generator:
        """The running thread gives up the CPU until one of this
        processor's own events, ``target``, triggers or ``timer``
        expires."""
        thread = self._thread
        thread.target, thread.timer = target, timer
        yield _SWITCH

    # -- barriers ---------------------------------------------------------------

    def _participate(
        self, bid: int, release: Optional[Event] = None
    ) -> Generator:
        """Run this processor through barrier episode ``bid``, then
        resolve ``release``, the wake-up of the local threads parked
        there (if any)."""
        t0, busy0 = self.env.now, self.stats.busy_total
        yield from self.coordinator.participate(self, bid)
        self.stats.barrier_wait += (self.env.now - t0) - (
            self.stats.busy_total - busy0
        )
        if self._obs is not None:
            # The whole episode (enter..exit); busy spans recorded
            # while servicing requests inside it nest within.
            self._obs.span(self.pid, "barrier_wait", t0, self.env.now)
        if release is not None:
            release.resolve()

    def _arrive(self, bid: int) -> Generator:
        """A hosted thread reaches barrier ``bid``: returns the
        generator to delegate to.

        The thread parks until the last local thread arrives; that one
        runs the processor through the episode and releases the parked
        ones.  Not a generator itself, so the barrier protocol runs one
        generator frame higher on every event it waits on.
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
        return self._park(release)

    def _park(self, release: Event) -> Generator:
        """The running thread waits at a barrier for ``release``."""
        yield from self._wait(release)
        self._thread.blocked_reason = None

    # -- compute under the three service policies -----------------------------------

    def _compute(self, duration: float) -> Generator:
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
                        self.env.now,
                        factor=factor,
                        extra_us=extra,
                    )
        policy = self._policy
        if policy is _INTERRUPT:
            yield from self._compute_interrupt(scaled)
        elif policy is _NO_INTERRUPT:
            yield from self._busy(scaled, "compute")
        elif policy is _POLL:
            yield from self._compute_poll(scaled)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(policy)

    #: Compute remainders below this are float residue, not real work
    #: (1e-9 us = 1 femtosecond; far below any model parameter).
    _EPS = 1e-9

    def _compute_interrupt(self, scaled: float) -> Generator:
        remaining = scaled
        while remaining > self._EPS:
            # Anything already queued interrupts immediately.
            if self.inbox.items:
                msg = yield self.inbox.get()
                self.stats.interrupts += 1
                yield from self._dispatch(msg, interrupted=True)
                continue
            start = self.env.now
            finish = self._timeout(remaining)
            get_ev = self.inbox.get()
            yield FirstOf(self.env, (finish, get_ev))
            remaining -= self.env.now - start
            self._stats_add("compute", self.env.now - start)
            if self._obs is not None and self.env.now > start:
                self._obs_span("compute", start, self.env.now)
            if get_ev.triggered:
                self.stats.interrupts += 1
                yield from self._dispatch(get_ev.value, interrupted=True)
            else:
                self.inbox.cancel(get_ev)

    def _compute_poll(self, scaled: float) -> Generator:
        remaining = scaled
        while remaining > self._EPS:
            chunk = min(self.pp.poll_interval, remaining)
            # Not one chain: folding the poll overhead into the chunk
            # moves same-time ties (fig8's poll@1000us series changes).
            yield from self._busy(chunk, "compute")
            remaining -= chunk
            yield from self._busy(self.pp.poll_overhead, "poll_overhead")
            self.stats.polls += 1
            while self.inbox.items:
                msg = yield self.inbox.get()
                yield from self._dispatch(msg)

    # -- remote access protocol ---------------------------------------------------

    def _remote_access(self, action: Action, write: bool) -> Generator:
        owner = action.owner
        if owner == self._tid:
            raise ValueError(
                f"thread {owner}: remote access to itself in the trace"
            )
        kind = _EV_REMOTE_WRITE if write else _EV_REMOTE_READ
        self._record(kind, owner=owner, nbytes=action.nbytes, collection=action.label)
        if self._obs is not None:
            self._obs.instant(
                self.pid,
                "remote_write" if write else "remote_read",
                self.env.now,
                owner=owner,
                nbytes=action.nbytes,
            )
        dst = self._assignment[owner]
        if dst == self.pid:
            # The owner shares this processor: a local access, no message.
            yield from self._busy(self.pp.request_service_time, "service")
            return
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
        yield from self._send(msg, "comm_overhead")
        plan = self._fault_plan
        if plan is not None and plan.request_timeout > 0.0:
            yield from self._await_reply_retry(msg, reply_ev, owner, write)
        else:
            yield from self._wait(reply_ev)
        self.stats.remote_accesses += 1

    def _await_reply_retry(
        self, msg: Message, reply_ev: Event, owner: int, write: bool
    ) -> Generator:
        """Wait for a reply under the timeout/bounded-retry protocol.

        Each timeout retransmits the request (same ``msg_id``, so a
        slow original reply still completes the access) with the
        timeout stretched by ``retry_backoff``.  When the retry budget
        is exhausted the access is abandoned: the thread parks with a
        ``blocked_reason`` and waits indefinitely — on a fully
        partitioned route the watchdog then raises
        :class:`~repro.des.engine.SimulationStalled` naming it.  With
        k > 1 threads the waiting thread gives up the CPU; a timer that
        expires while a sibling runs is acted on at the next switch.
        """
        plan = self._fault_plan
        deadline = plan.request_timeout
        attempt = 0
        while True:
            timer = self._timeout(deadline)
            yield from self._wait(reply_ev, timer)
            if reply_ev.triggered:
                return
            assert timer.processed
            attempt += 1
            self.stats.timeouts += 1
            if self._obs is not None:
                self._obs.instant(
                    self.pid,
                    "fault.timeout",
                    self.env.now,
                    owner=owner,
                    msg_id=msg.msg_id,
                    attempt=attempt,
                )
            if attempt > plan.max_retries:
                self.stats.retry_giveups += 1
                self._thread.blocked_reason = (
                    f"remote {'write' if write else 'read'} to proc {msg.dst} "
                    f"gave up after {attempt} timeouts "
                    f"(msg {msg.msg_id}, {plan.max_retries} retries)"
                )
                if self._obs is not None:
                    self._obs.instant(
                        self.pid,
                        "fault.retry_giveup",
                        self.env.now,
                        owner=owner,
                        msg_id=msg.msg_id,
                    )
                yield from self._wait(reply_ev)
                self._thread.blocked_reason = None
                return
            self.stats.retries += 1
            if self._obs is not None:
                self._obs.instant(
                    self.pid,
                    "fault.retry",
                    self.env.now,
                    owner=owner,
                    msg_id=msg.msg_id,
                    attempt=attempt,
                )
            deadline *= plan.retry_backoff
            retransmit = Message(
                msg.kind, msg.src, msg.dst, msg.nbytes, msg.msg_id, -1,
                msg.reply_nbytes, attempt=attempt,
            )
            yield from self._send(retransmit, "comm_overhead")

    def _send(self, msg: Message, category: str) -> Generator:
        """Build and inject a message (sender-side busy costs)."""
        cost = self.pp.msg_build_time + self.network.startup_time(
            msg.src, msg.dst
        )
        if cost > 0:  # inlined _busy: one generator frame less per send
            t0 = self.env.now
            yield self._timeout(cost)
            self._stats_add(category, cost)
            if self._obs is not None:
                self._obs_span(category, t0, self.env.now)
        self.network.send(msg)
        self.stats.messages_sent += 1

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

    def _obs_rxq_after(self, delay: float) -> None:
        """Sample the receive-queue depth ``delay`` from now (observing).

        Stands in for the sample a step-by-step chain takes after its
        leading step: a zero-work timeout pushed where that step's own
        timeout would be sees the queue at the same ``(time, priority,
        seq)`` position.  It exists only while observing and changes no
        other event's relative order.
        """

        def sample(_ev: Event) -> None:
            self._obs.counter(
                self._rxq_counter, self.env.now, len(self.inbox.items)
            )

        self._timeout(delay).callbacks.append(sample)

    def _dispatch(self, msg: Message, interrupted: bool = False) -> Generator:
        """Handle one received message (runs in this processor's context).

        ``interrupted``: the message preempted computation, so
        ``interrupt_overhead`` is paid first; it leads a request's service
        in one busy chain.
        """
        kind = msg.kind
        request = kind is _MSG_REQUEST or kind is _MSG_WRITE
        lead = self.pp.interrupt_overhead if interrupted else 0.0
        if lead > 0 and not request:
            yield from self._busy(lead, "interrupt_overhead")
        self.stats.messages_received += 1
        if self._obs is not None:
            if request and lead > 0:
                self._obs_rxq_after(lead)
            else:
                self._obs.counter(
                    self._rxq_counter, self.env.now, len(self.inbox.items)
                )
        if request:
            # [Interrupt overhead,] service: one busy chain.  The reply's
            # build and start-up stay a step of their own: folding them
            # in as well moves same-time ties between the reply's
            # injection and other traffic (fig5 and fig8 change).
            yield from self._busy(
                lead, "interrupt_overhead", (self.pp.request_service_time, "service")
            )
            self.stats.requests_served += 1
            if kind is _MSG_REQUEST:
                reply = Message(
                    _MSG_REPLY, self.pid, msg.src, msg.reply_nbytes, msg.msg_id
                )
            else:
                reply = Message(_MSG_WRITE_ACK, self.pid, msg.src, 0, msg.msg_id)
            yield from self._send(reply, "service")
        elif kind is _MSG_REPLY or kind is _MSG_WRITE_ACK:
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
                            self.env.now,
                            msg_id=msg.msg_id,
                        )
                    return
                raise RuntimeError(
                    f"processor {self.pid}: unexpected {msg!r} "
                    "(no pending request with that id)"
                )
            ev.resolve(msg)
        elif kind is _MSG_ARRIVE:
            yield from self.coordinator.on_arrive(self, msg)
        elif kind is _MSG_RELEASE:
            self.coordinator.on_release(self, msg)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unhandled message kind {kind}")

    def _await_own(self, target: Event) -> Generator:
        """Wait for an event that only this processor's dispatch triggers.

        Reply/ack events and the message-mode barrier events are
        triggered by :meth:`_dispatch` running in this process, with
        :meth:`~repro.des.events.Event.resolve` (never queued), so while
        the process is suspended only an inbox arrival can end the wait.
        The arrival is awaited through a one-child
        :class:`~repro.des.events.FirstOf` relay: the process resumes one
        queue hop after the inbox get, behind any same-time event queued
        before the get was processed.  Dropping that hop reorders
        same-time ties (the ``ideal`` preset moves most).
        """
        inbox_get = self.inbox.get
        env = self.env
        while not target.triggered:
            msg = yield FirstOf(env, (inbox_get(),))
            yield from self._dispatch(msg)

    def _serve_until(
        self, done: Callable[[], bool], waits: Tuple[Event, ...]
    ) -> Generator:
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
        env = self.env
        inbox_get = self.inbox.get
        while not done():
            get_ev = inbox_get()
            yield FirstOf(env, waits + (get_ev,))
            if get_ev.triggered:
                yield from self._dispatch(get_ev.value)
            else:
                self.inbox.cancel(get_ev)
