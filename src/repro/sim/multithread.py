"""Multithreaded processors: n threads extrapolated onto m <= n processors.

The paper's §6 extension ("we are currently modifying ExtraP to support
multithreading": extrapolate an n-thread, 1-processor run to an
n-thread, m-processor run).  The simulator's own processor model runs
it: :class:`repro.sim.simulator.Simulator` takes a thread -> processor
``assignment``, and a processor hosting several threads schedules them
non-preemptively, as the pC++ runtime does — a thread holds the CPU
until it waits on a reply or a barrier (see :mod:`repro.sim.processor`).
Accesses between threads on the same processor cost only the local
service time, so co-scheduling communicating threads is exactly the
locality effect this extension lets you study
(:meth:`repro.sim.result.SimulationResult.local_accesses`).
"""

from __future__ import annotations

from typing import List

from repro.core.parameters import SimulationParameters
from repro.core.translation import TranslatedProgram
from repro.sim.result import SimulationResult
from repro.sim.simulator import simulate


def assign_threads(n_threads: int, n_processors: int, scheme: str = "block") -> List[int]:
    """Thread -> processor map.

    ``block`` packs consecutive threads together (good locality for
    nearest-neighbour codes), ⌊n/m⌋ or ⌈n/m⌉ to a processor; ``cyclic``
    deals them round-robin.
    """
    if n_processors < 1:
        raise ValueError(f"need at least 1 processor, got {n_processors}")
    if n_processors > n_threads:
        raise ValueError(
            f"{n_processors} processors for {n_threads} threads; the "
            "multithread model requires m <= n"
        )
    if scheme == "block":
        return [t * n_processors // n_threads for t in range(n_threads)]
    if scheme == "cyclic":
        return [t % n_processors for t in range(n_threads)]
    raise ValueError(f"unknown assignment scheme {scheme!r}")


def simulate_multithreaded(
    translated: TranslatedProgram,
    params: SimulationParameters,
    n_processors: int,
    *,
    assignment_scheme: str = "block",
) -> SimulationResult:
    """Simulate ``translated`` on ``n_processors`` processors, its threads
    placed by :func:`assign_threads`."""
    assignment = assign_threads(
        translated.n_threads, n_processors, assignment_scheme
    )
    return simulate(translated, params, assignment=assignment)
