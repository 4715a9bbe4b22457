"""Barrier synchronisation models (§3.3.3, Table 1).

The default is the paper's **linear master–slave** barrier: thread 0 is
the master; every slave entering the barrier sends an arrival message to
the master and waits for a release message; the master collects all
arrivals, waits ``ModelTime``, then sends releases one by one.  With
``by_msgs`` unset, a shared-memory flag protocol is modelled instead:
arrivals increment a shared counter (no messages), the master pays one
``CheckTime`` for its successful check, slaves pay one ``ExitCheckTime``
when they notice the release.

Substitutable algorithms (the paper: "we can easily substitute other
barrier algorithms"):

* **LOG** — a binomial combining tree (message mode only; in flag mode it
  behaves like LINEAR because there are no messages to restructure);
* **HARDWARE** — a dedicated barrier network: release fires ``ModelTime``
  after the last arrival, with no message traffic.

Crucially, processors keep servicing remote data requests while they wait
at a barrier — both here and in the real pC++ runtime system — so every
wait serves the inbox: message-mode waits, whose events only the
processor's own dispatch triggers, through ``SimProcessor._await_own``;
flag and hardware releases, triggered by another process, through
``SimProcessor._serve_until``.

Each processor's side of the protocol is a :class:`_Participant`, reused
episode after episode.  A protocol is a tuple of its step methods, run
in order in the processor's callback style (see
:mod:`repro.sim.processor`): a step returns ``True`` when it finished
without waiting, or waits and resumes the run when done.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.parameters import BarrierAlgorithm, BarrierParams
from repro.des import Environment, Event
from repro.sim.messages import Message, MsgKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.processor import SimProcessor

_BARRIER_CAT = "barrier_overhead"


class _Episode:
    """State of one barrier episode (lazily created per barrier id)."""

    __slots__ = (
        "arrived",
        "all_arrived",
        "master_done",
        "released",
        "releases",
        "tree_arrived",
        "tree_done",
    )

    def __init__(self, env: Environment):
        self.arrived = 0
        #: fires when all n processors have arrived (flag/hardware modes)
        self.all_arrived = Event(env)
        #: fires when the master has consumed n-1 arrival messages (msg mode)
        self.master_done = Event(env)
        #: broadcast release (flag/hardware modes)
        self.released = Event(env)
        #: per-processor release events (message modes)
        self.releases: Dict[int, Event] = {}
        #: tree mode: arrival counts and completion events per node
        self.tree_arrived: Dict[int, int] = {}
        self.tree_done: Dict[int, Event] = {}


class BarrierCoordinator:
    """Shared barrier state + the participate() protocol steps."""

    MASTER = 0

    def __init__(self, env: Environment, n: int, params: BarrierParams):
        self.env = env
        self.n = n
        self.params = params
        self._episodes: Dict[int, _Episode] = {}
        #: completed episodes: barrier_id -> (last arrival time, release time)
        self.history: Dict[int, tuple] = {}
        #: timeline recorder, or None when observation is off
        self._obs = env.obs
        #: fault injector, or None for ideal (always-on-time) arrivals
        self._faults = env.faults
        #: pid -> that processor's side of the protocol, made on first use
        self._participants: List[Optional[_Participant]] = [None] * n

    def _obs_release(self, bid: int) -> None:
        """Record a barrier release (observation is on)."""
        now = self.env.now
        self._obs.instant(self.MASTER, "barrier_release", now, barrier_id=bid)
        self._obs.counter("barriers.released", now, len(self.history))

    # -- state access -------------------------------------------------------

    def _participant(self, proc: "SimProcessor") -> "_Participant":
        part = self._participants[proc.pid]
        if part is None:
            part = self._participants[proc.pid] = _Participant(self, proc)
        return part

    def _ep(self, bid: int) -> _Episode:
        if bid not in self._episodes:
            self._episodes[bid] = _Episode(self.env)
        return self._episodes[bid]

    def _release_event(self, ep: _Episode, pid: int) -> Event:
        if pid not in ep.releases:
            ep.releases[pid] = Event(self.env)
        return ep.releases[pid]

    def _tree_done_event(self, ep: _Episode, pid: int) -> Event:
        if pid not in ep.tree_done:
            ep.tree_done[pid] = Event(self.env)
        return ep.tree_done[pid]

    def tree_children(self, pid: int) -> List[int]:
        """Children of ``pid`` in the binomial combining tree."""
        children = []
        k = 1
        while k < self.n:
            if pid % (2 * k) == 0 and pid + k < self.n:
                children.append(pid + k)
            if pid % (2 * k) != 0:
                break
            k *= 2
        return children

    def tree_parent(self, pid: int) -> int:
        """Parent of ``pid`` in the binomial tree (pid 0 is the root)."""
        if pid == 0:
            raise ValueError("the root has no parent")
        return pid - (pid & -pid)

    # -- message hooks (called from SimProcessor._dispatch) --------------------

    def on_arrive(
        self, k: Callable[[], None], proc: "SimProcessor", msg: Message
    ) -> bool:
        """An arrival message reached ``proc`` (master or tree parent): a
        step of the processor's dispatch (see :mod:`repro.sim.processor`)."""
        part = self._participant(proc)
        part.arrival, part.arrival_k = msg, k
        if proc._busy(part.arrival_checked, self.params.check_time, _BARRIER_CAT):
            self._count_arrival(proc, msg)
            return True
        return False

    def _count_arrival(self, proc: "SimProcessor", msg: Message) -> None:
        ep = self._ep(msg.barrier_id)
        if self.params.algorithm is BarrierAlgorithm.LOG:
            ep.tree_arrived[proc.pid] = ep.tree_arrived.get(proc.pid, 0) + 1
            if ep.tree_arrived[proc.pid] >= len(self.tree_children(proc.pid)):
                done = self._tree_done_event(ep, proc.pid)
                if not done.triggered:
                    done.resolve()
        else:
            ep.arrived += 1
            if ep.arrived >= self.n - 1 and not ep.master_done.triggered:
                ep.master_done.resolve()

    def on_release(self, proc: "SimProcessor", msg: Message) -> None:
        """A release message reached slave ``proc``."""
        ev = self._release_event(self._ep(msg.barrier_id), proc.pid)
        if not ev.triggered:
            ev.resolve()

    # -- the protocol ------------------------------------------------------------

    def pending_barriers(self) -> List[Tuple[int, str]]:
        """Episodes not yet released, as ``(barrier_id, status)`` pairs.

        The watchdog includes these in its :class:`SimulationStalled`
        diagnosis so a barrier starved of arrivals is named directly.
        """
        pending = []
        for bid in sorted(self._episodes):
            times = self.history.get(bid)
            if times is not None and times[1] is not None:
                continue
            ep = self._episodes[bid]
            if self.params.by_msgs and self.params.algorithm is BarrierAlgorithm.LOG:
                arrived = sum(ep.tree_arrived.values())
                expected = self.n - 1
            elif (
                self.params.by_msgs
                and self.params.algorithm is not BarrierAlgorithm.HARDWARE
            ):
                arrived, expected = ep.arrived, self.n - 1
            else:
                arrived, expected = ep.arrived, self.n
            pending.append((bid, f"{arrived}/{expected} arrivals"))
        return pending

    def participate(
        self, k: Callable[[], None], proc: "SimProcessor", bid: int
    ) -> bool:
        """Run one processor through barrier episode ``bid``: a step (see
        :mod:`repro.sim.processor`)."""
        P = _Participant
        alg = self.params.algorithm
        if alg is BarrierAlgorithm.HARDWARE:
            steps = P.HARDWARE
        elif self.params.by_msgs and alg is BarrierAlgorithm.LOG:
            steps = P.LOG_ROOT if proc.pid == 0 else P.LOG_NODE
        elif self.params.by_msgs:
            steps = P.LINEAR_MASTER if proc.pid == self.MASTER else P.LINEAR_SLAVE
        else:
            steps = P.FLAG_MASTER if proc.pid == self.MASTER else P.FLAG_SLAVE
        part = self._participant(proc)
        if self._faults is not None:
            delay = self._faults.barrier_arrival_delay()
            if delay > 0.0:
                # The fault plan holds this processor back: it reaches
                # the barrier late (idle time, not barrier overhead).
                proc.stats.barrier_delays += 1
                if self._obs is not None:
                    self._obs.instant(
                        proc.pid,
                        "fault.barrier_delay",
                        self.env.now,
                        barrier_id=bid,
                        delay_us=delay,
                    )
                part.delay = delay
                steps = (P.late,) + steps
        return part.run(k, steps, bid)


class _Participant:
    """One processor's side of the barrier protocol.

    :meth:`run` runs a protocol, a tuple of the step methods below, in
    order as one step.  A step returns ``True`` when it finished without
    waiting; otherwise it waits with :attr:`resume` as its continuation,
    which runs the rest.  An arrival message dispatched meanwhile (the
    master or a tree parent collects them while it waits, or before it
    arrives itself) keeps its own slots, ``arrival`` and ``arrival_k``.
    """

    __slots__ = ("c", "proc", "steps", "i", "k", "bid", "ep", "delay",
                 "resume", "arrival", "arrival_k", "arrival_checked")

    def __init__(self, coordinator: BarrierCoordinator, proc: "SimProcessor"):
        self.c = coordinator
        self.proc = proc
        self.steps: Tuple[Callable[["_Participant"], bool], ...] = ()
        self.i = 0
        self.k: Optional[Callable[[], None]] = None
        self.bid = -1
        self.ep: Optional[_Episode] = None
        self.delay = 0.0
        self.resume = self._resume
        self.arrival: Optional[Message] = None
        self.arrival_k: Optional[Callable[[], None]] = None
        self.arrival_checked = self._arrival_checked

    def run(
        self,
        k: Callable[[], None],
        steps: Tuple[Callable[["_Participant"], bool], ...],
        bid: int,
    ) -> bool:
        self.k, self.steps, self.i = k, steps, 0
        self.bid, self.ep = bid, self.c._ep(bid)
        return self._advance()

    def _advance(self) -> bool:
        steps, i = self.steps, self.i
        while i < len(steps):
            step = steps[i]
            i += 1
            if not step(self):
                # The step resumes the run later, from the next one.
                self.i = i
                return False
        return True

    def _resume(self) -> None:
        if self._advance():
            self.k()

    def _arrival_checked(self) -> None:
        self.c._count_arrival(self.proc, self.arrival)
        self.arrival_k()

    def _send(self, kind: MsgKind, dst: int) -> None:
        # Positional Message fields: kind, src, dst, nbytes, msg_id,
        # barrier_id.
        self.proc._send_raw(
            Message(kind, self.proc.pid, dst, self.c.params.msg_size, -1, self.bid)
        )

    def _released(self) -> None:
        """The episode's release happened now."""
        c, bid = self.c, self.bid
        c.history[bid] = (c.history[bid][0], c.env.now)
        if c._obs is not None:
            c._obs_release(bid)

    # -- steps shared by the protocols ---------------------------------------

    def late(self) -> bool:
        """Reach the barrier ``delay`` late (a fault plan's delay)."""
        self.proc._call_in(self.delay, self._delayed)
        return False

    def _delayed(self, _arg: None) -> None:
        self.resume()

    def entry(self) -> bool:
        return self.proc._busy(self.resume, self.c.params.entry_time, _BARRIER_CAT)

    def exit(self) -> bool:
        return self.proc._busy(self.resume, self.c.params.exit_time, _BARRIER_CAT)

    def await_release_msg(self) -> bool:
        """Wait for this processor's release message."""
        release = self.c._release_event(self.ep, self.proc.pid)
        return self.proc._await_own(self.resume, release)

    def await_release(self) -> bool:
        """Wait for the broadcast release (flag and hardware modes)."""
        ep = self.ep
        return self.proc._serve_until(
            self.resume, self._is_released, (ep.released,)
        )

    def _is_released(self) -> bool:
        return self.ep.released.triggered

    # -- linear, by messages -------------------------------------------------

    def gather(self) -> bool:
        """The master waits for every slave's arrival message."""
        if self.c.n <= 1:
            return True
        return self.proc._await_own(self.resume, self.ep.master_done)

    def lower(self) -> bool:
        c = self.c
        c.history[self.bid] = (c.env.now, None)
        return self.proc._busy(self.resume, c.params.model_time, _BARRIER_CAT)

    def release_slaves(self) -> bool:
        for slave in range(1, self.c.n):
            self._send(MsgKind.BARRIER_RELEASE, slave)
        self._released()
        return True

    def report_to_master(self) -> bool:
        self._send(MsgKind.BARRIER_ARRIVE, self.c.MASTER)
        return True

    LINEAR_MASTER = (entry, gather, lower, release_slaves, exit)
    LINEAR_SLAVE = (entry, report_to_master, await_release_msg, exit)

    # -- binomial tree, by messages ----------------------------------------------

    def gather_children(self) -> bool:
        c, pid, ep = self.c, self.proc.pid, self.ep
        children = c.tree_children(pid)
        if not children:
            return True
        done = c._tree_done_event(ep, pid)
        if ep.tree_arrived.get(pid, 0) >= len(children) and not done.triggered:
            done.resolve()
        return self.proc._await_own(self.resume, done)

    def report_to_parent(self) -> bool:
        self._send(MsgKind.BARRIER_ARRIVE, self.c.tree_parent(self.proc.pid))
        return True

    def lower_root(self) -> bool:
        c = self.c
        c.history[self.bid] = (c.env.now, c.env.now)
        return self.proc._busy(self.resume, c.params.model_time, _BARRIER_CAT)

    def lowered_root(self) -> bool:
        if self.c._obs is not None:
            self.c._obs_release(self.bid)
        return True

    def release_children(self) -> bool:
        for child in self.c.tree_children(self.proc.pid):
            self._send(MsgKind.BARRIER_RELEASE, child)
        return True

    LOG_ROOT = (entry, gather_children, lower_root, lowered_root,
                release_children, exit)
    LOG_NODE = (entry, gather_children, report_to_parent, await_release_msg,
                release_children, exit)

    # -- flag (shared memory) --------------------------------------------------------

    def count_in(self) -> bool:
        """Increment the shared arrival counter."""
        c, ep = self.c, self.ep
        ep.arrived += 1
        if ep.arrived >= c.n and not ep.all_arrived.triggered:
            ep.all_arrived.succeed()
            c.history[self.bid] = (c.env.now, None)
        return True

    def check_all_arrived(self) -> bool:
        ep = self.ep
        return self.proc._serve_until(
            self.resume, self._all_arrived, (ep.all_arrived,)
        )

    def _all_arrived(self) -> bool:
        return self.ep.all_arrived.triggered

    def lower_flag(self) -> bool:
        """The successful check, then lowering the barrier."""
        b = self.c.params
        return self.proc._busy_chain(
            self.resume, b.check_time, _BARRIER_CAT, b.model_time, _BARRIER_CAT
        )

    def release_flag(self) -> bool:
        if not self.ep.released.triggered:
            self.ep.released.succeed()
        self._released()
        return True

    def leave_flag(self) -> bool:
        """Noticing the release, then leaving."""
        b = self.c.params
        return self.proc._busy_chain(
            self.resume, b.exit_check_time, _BARRIER_CAT, b.exit_time, _BARRIER_CAT
        )

    FLAG_MASTER = (entry, count_in, check_all_arrived, lower_flag,
                   release_flag, exit)
    FLAG_SLAVE = (entry, count_in, await_release, leave_flag)

    # -- hardware ----------------------------------------------------------------------

    def count_in_hardware(self) -> bool:
        """Arrive on the barrier network; the last arrival starts the
        ``ModelTime`` countdown to the release."""
        c, ep = self.c, self.ep
        ep.arrived += 1
        if ep.arrived >= c.n and not ep.all_arrived.triggered:
            ep.all_arrived.succeed()
            bid, model_time = self.bid, c.params.model_time
            c.history[bid] = (c.env.now, c.env.now + model_time)
            release = ep.released

            def fire(_arg):
                if not release.triggered:
                    release.succeed()
                    if c._obs is not None:
                        c._obs_release(bid)

            c.env.call_in(model_time, fire)
        return True

    HARDWARE = (entry, count_in_hardware, await_release, exit)
