"""Per-phase wall-clock / simulated-time timers.

:class:`PhaseTimer` measures named phases of a simulation run on two
clocks at once: host wall time (``time.perf_counter``) and simulated
time (``env.now``), so a profile can say both "the replay took 80 ms of
CPU" and "it covered 26 ms of simulated execution".
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


@dataclass
class PhaseRecord:
    """Accumulated timings for one named phase."""

    wall_s: float = 0.0
    sim_us: float = 0.0
    count: int = 0

    def as_dict(self) -> dict:
        return {"wall_s": self.wall_s, "sim_us": self.sim_us, "count": self.count}


@dataclass
class PhaseTimer:
    """Accumulates wall/sim time per named phase.

    Usage::

        timer = PhaseTimer(env)
        with timer.phase("replay"):
            env.run()
    """

    env: Optional["Environment"] = None
    phases: Dict[str, PhaseRecord] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseRecord]:
        rec = self.phases.setdefault(name, PhaseRecord())
        wall0 = time.perf_counter()
        sim0 = self.env.now if self.env is not None else 0.0
        try:
            yield rec
        finally:
            rec.wall_s += time.perf_counter() - wall0
            if self.env is not None:
                rec.sim_us += self.env.now - sim0
            rec.count += 1

    def as_dict(self) -> dict:
        return {name: rec.as_dict() for name, rec in self.phases.items()}

    def format(self) -> str:
        """Short text block for reports."""
        if not self.phases:
            return "phase timers: (none)"
        lines = ["phase timers (wall ms / sim us):"]
        for name, rec in self.phases.items():
            lines.append(
                f"  {name:10s} {rec.wall_s * 1e3:9.2f} ms  {rec.sim_us:12.1f} us"
            )
        return "\n".join(lines)
