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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

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
    """Shared barrier state + the participate() protocol generators."""

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

    def _obs_release(self, bid: int) -> None:
        """Record a barrier release (observation is on)."""
        now = self.env.now
        self._obs.instant(self.MASTER, "barrier_release", now, barrier_id=bid)
        self._obs.counter("barriers.released", now, len(self.history))

    # -- state access -------------------------------------------------------

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

    def on_arrive(self, proc: "SimProcessor", msg: Message) -> Generator:
        """An arrival message reached ``proc`` (master or tree parent)."""
        yield from proc._busy(self.params.check_time, _BARRIER_CAT)
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

    def participate(self, proc: "SimProcessor", bid: int) -> Generator:
        """Run one processor through barrier episode ``bid``."""
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
                yield proc._timeout(delay)
        alg = self.params.algorithm
        if alg is BarrierAlgorithm.HARDWARE:
            yield from self._participate_hardware(proc, bid)
        elif self.params.by_msgs and alg is BarrierAlgorithm.LOG:
            yield from self._participate_log(proc, bid)
        elif self.params.by_msgs:
            yield from self._participate_linear_msgs(proc, bid)
        else:
            yield from self._participate_flag(proc, bid)

    def _participate_linear_msgs(self, proc: "SimProcessor", bid: int) -> Generator:
        b = self.params
        ep = self._ep(bid)
        yield from proc._busy(b.entry_time, _BARRIER_CAT)
        if proc.pid == self.MASTER:
            if self.n > 1:
                yield from proc._await_own(ep.master_done)
            self.history[bid] = (self.env.now, None)
            yield from proc._busy(b.model_time, _BARRIER_CAT)
            for slave in range(1, self.n):
                proc._send_raw(
                    Message(
                        MsgKind.BARRIER_RELEASE,
                        src=proc.pid,
                        dst=slave,
                        nbytes=b.msg_size,
                        barrier_id=bid,
                    )
                )
            self.history[bid] = (self.history[bid][0], self.env.now)
            if self._obs is not None:
                self._obs_release(bid)
        else:
            proc._send_raw(
                Message(
                    MsgKind.BARRIER_ARRIVE,
                    src=proc.pid,
                    dst=self.MASTER,
                    nbytes=b.msg_size,
                    barrier_id=bid,
                )
            )
            yield from proc._await_own(self._release_event(ep, proc.pid))
        yield from proc._busy(b.exit_time, _BARRIER_CAT)

    def _participate_log(self, proc: "SimProcessor", bid: int) -> Generator:
        b = self.params
        ep = self._ep(bid)
        children = self.tree_children(proc.pid)
        yield from proc._busy(b.entry_time, _BARRIER_CAT)
        if children:
            done = self._tree_done_event(ep, proc.pid)
            if ep.tree_arrived.get(proc.pid, 0) >= len(children) and not done.triggered:
                done.resolve()
            yield from proc._await_own(done)
        if proc.pid != 0:
            proc._send_raw(
                Message(
                    MsgKind.BARRIER_ARRIVE,
                    src=proc.pid,
                    dst=self.tree_parent(proc.pid),
                    nbytes=b.msg_size,
                    barrier_id=bid,
                )
            )
            yield from proc._await_own(self._release_event(ep, proc.pid))
        else:
            self.history[bid] = (self.env.now, self.env.now)
            yield from proc._busy(b.model_time, _BARRIER_CAT)
            if self._obs is not None:
                self._obs_release(bid)
        for child in children:
            proc._send_raw(
                Message(
                    MsgKind.BARRIER_RELEASE,
                    src=proc.pid,
                    dst=child,
                    nbytes=b.msg_size,
                    barrier_id=bid,
                )
            )
        yield from proc._busy(b.exit_time, _BARRIER_CAT)

    def _participate_flag(self, proc: "SimProcessor", bid: int) -> Generator:
        b = self.params
        ep = self._ep(bid)
        yield from proc._busy(b.entry_time, _BARRIER_CAT)
        ep.arrived += 1
        if ep.arrived >= self.n and not ep.all_arrived.triggered:
            ep.all_arrived.succeed()
            self.history[bid] = (self.env.now, None)
        if proc.pid == self.MASTER:
            yield from proc._serve_until(
                lambda: ep.all_arrived.triggered, (ep.all_arrived,)
            )
            # The successful check, then lowering the barrier.
            yield from proc._busy(
                b.check_time, _BARRIER_CAT, (b.model_time, _BARRIER_CAT)
            )
            if not ep.released.triggered:
                ep.released.succeed()
            self.history[bid] = (self.history[bid][0], self.env.now)
            if self._obs is not None:
                self._obs_release(bid)
            yield from proc._busy(b.exit_time, _BARRIER_CAT)
        else:
            yield from proc._serve_until(
                lambda: ep.released.triggered, (ep.released,)
            )
            # Noticing the release, then leaving.
            yield from proc._busy(
                b.exit_check_time, _BARRIER_CAT, (b.exit_time, _BARRIER_CAT)
            )

    def _participate_hardware(self, proc: "SimProcessor", bid: int) -> Generator:
        b = self.params
        ep = self._ep(bid)
        yield from proc._busy(b.entry_time, _BARRIER_CAT)
        ep.arrived += 1
        if ep.arrived >= self.n and not ep.all_arrived.triggered:
            ep.all_arrived.succeed()
            self.history[bid] = (self.env.now, self.env.now + b.model_time)
            release = ep.released

            def fire(_ev, release=release):
                if not release.triggered:
                    release.succeed()
                    if self._obs is not None:
                        self._obs_release(bid)

            self.env.timeout(b.model_time).callbacks.append(fire)
        yield from proc._serve_until(lambda: ep.released.triggered, (ep.released,))
        yield from proc._busy(b.exit_time, _BARRIER_CAT)
