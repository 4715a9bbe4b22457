"""Benchmark registry (paper Table 2 + Matmul).

Lazy imports keep ``import repro.bench`` cheap; benchmark modules pull
in scipy/numpy machinery only when used.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List

from repro.bench.base import ProgramMaker


@dataclass(frozen=True)
class BenchmarkInfo:
    """Registry entry for one benchmark."""

    name: str
    description: str
    module: str
    config_name: str
    #: thread counts must be powers of two (pairwise-exchange benchmarks)
    power_of_two_only: bool = False

    def config_cls(self) -> type:
        return getattr(importlib.import_module(self.module), self.config_name)

    def make_config(self, **overrides: Any):
        return self.config_cls()(**overrides)

    def make_program(self, cfg: Any = None, **overrides: Any) -> ProgramMaker:
        mod = importlib.import_module(self.module)
        if cfg is None:
            cfg = self.make_config(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or overrides, not both")
        return mod.make_program(cfg)

    def counts(self, processor_counts: Iterable[int]) -> List[int]:
        """The thread counts of ``processor_counts`` this benchmark runs
        at, in their order: all of them, or only the powers of two."""
        return [
            p
            for p in processor_counts
            if not self.power_of_two_only or (p & (p - 1)) == 0
        ]


#: All benchmarks, keyed by name; descriptions are Table 2's.
BENCHMARKS: Dict[str, BenchmarkInfo] = {
    b.name: b
    for b in [
        BenchmarkInfo(
            "embar",
            'NAS "embarrassingly parallel" benchmark',
            "repro.bench.embar",
            "EmbarConfig",
        ),
        BenchmarkInfo(
            "cyclic",
            "Cyclic reduction computation",
            "repro.bench.cyclic",
            "CyclicConfig",
            power_of_two_only=True,
        ),
        BenchmarkInfo(
            "sparse",
            "NAS random sparse conjugate gradient benchmark",
            "repro.bench.sparse",
            "SparseConfig",
        ),
        BenchmarkInfo(
            "grid",
            "Poisson equation on a two dimensional grid",
            "repro.bench.grid",
            "GridConfig",
        ),
        BenchmarkInfo(
            "mgrid",
            "NAS multigrid solver benchmark",
            "repro.bench.mgrid",
            "MgridConfig",
        ),
        BenchmarkInfo(
            "poisson",
            "Fast Poisson solver",
            "repro.bench.poisson",
            "PoissonConfig",
        ),
        BenchmarkInfo(
            "sort",
            "Bitonic sort module",
            "repro.bench.sort",
            "SortConfig",
            power_of_two_only=True,
        ),
        BenchmarkInfo(
            "matmul",
            "Matrix multiply used for the CM-5 validation (§4.2)",
            "repro.bench.matmul",
            "MatmulConfig",
        ),
    ]
}


def get_benchmark(name: str) -> BenchmarkInfo:
    """Look up a benchmark by name."""
    try:
        return BENCHMARKS[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        ) from None
