"""A pC++-style object-parallel runtime (the measured environment E1).

pC++ distributes a *collection* of element objects across n threads
(HPF-style Block/Cyclic/Whole distributions), invokes methods over all
local elements in parallel phases separated by global barriers, and lets
threads read elements they do not own via *remote element requests*
serviced by the owner ("owner computes").

This package reproduces that model in Python:

* :mod:`repro.pcxx.distribution` — per-dimension distribution attributes,
  including the paper's integer-sqrt (BLOCK, BLOCK) rule whose idle
  processors explain the Grid/Mgrid 4-to-8 processor plateau (§4.1);
* :mod:`repro.pcxx.collection` — distributed element containers;
* :mod:`repro.pcxx.runtime` — the tracing runtime: runs n generator
  threads on one virtual processor and records the high-level event
  trace.  :meth:`~repro.pcxx.runtime.TracingRuntime.run` is the analog
  of the paper's AWESIME threads package: it switches threads only at
  barriers, and raises :class:`~repro.pcxx.runtime.DeadlockError` when
  threads are left waiting at one;
* :mod:`repro.pcxx.patterns` — broadcast / reduction / shift communication
  patterns written against the thread API, shared by the benchmarks.
"""

from repro.pcxx.distribution import (
    Dist,
    Distribution1D,
    Distribution2D,
    make_distribution,
)
from repro.pcxx.collection import Collection
from repro.pcxx.runtime import DeadlockError, ThreadCtx, TracingRuntime

__all__ = [
    "Collection",
    "DeadlockError",
    "Dist",
    "Distribution1D",
    "Distribution2D",
    "ThreadCtx",
    "TracingRuntime",
    "make_distribution",
]
