"""Generator-based simulation processes.

A process wraps a Python generator.  Each value the generator yields must
be an :class:`~repro.des.events.Event`; the process sleeps until that
event fires, then resumes with the event's value (``ev.value`` is sent in,
or the failure exception is thrown in).  The process object is itself an
event that fires when the generator returns, carrying the generator's
return value — so processes can wait on other processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.des.events import Event, Initialize, PENDING, PROCESSED, TRIGGERED

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


class Process(Event):
    """A running simulation process.

    Parameters
    ----------
    env:
        Owning environment.
    generator:
        The generator implementing the process body.
    name:
        Optional label used in reprs and error messages.
    """

    __slots__ = ("_generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process body must be a generator, got {generator!r}")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(env).callbacks.append(self._resume)

    def _resume(self, ev: Event) -> None:
        """Advance the generator one step and rearm on its next yield.

        This is the engine's hottest callback (one call per processed
        event a process waits on), so the success path is fully inlined:
        no property lookups, no delegation, and the common rearm case —
        a live event in this environment — is handled here.
        """
        try:
            if ev._ok:
                target = self._generator.send(ev._value)
            else:
                target = self._generator.throw(ev._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        # Hot rearm: a pending/triggered event belonging to this env.
        if isinstance(target, Event) and target.env is self.env:
            state = target._state
            if state != PROCESSED:
                target.callbacks.append(self._resume)
                if state == TRIGGERED and not target._ok:
                    # We are now a waiter on the failure, so it is handled.
                    target.defused = True
                return
        self._rearm(target)

    def _rearm(self, target: Any) -> None:
        """Wait on ``target`` (slow cases: processed/foreign/non-events)."""
        if not isinstance(target, Event):
            err = RuntimeError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
            self._generator.close()
            self.fail(err)
            return
        if target.env is not self.env:
            self._generator.close()
            self.fail(RuntimeError("yielded event belongs to another environment"))
            return
        # Already processed: resume at the current time through the queue
        # so simultaneous events keep FIFO order.
        proxy = Event(self.env)
        proxy.callbacks.append(self._resume)
        if target._ok:
            proxy.succeed(target._value)
        else:
            target.defused = True
            proxy.fail(target._value)

    def __repr__(self) -> str:
        status = "alive" if self._state == PENDING else "dead"
        return f"<Process {self.name} {status} at {id(self):#x}>"
