"""Shared benchmark plumbing.

Benchmarks follow one shape::

    @dataclass
    class FooConfig:
        ...problem parameters with small-but-meaningful defaults...
        verify: bool = True

    def make_program(cfg: FooConfig) -> ProgramMaker:
        def maker(n_threads: int) -> ProgramFactory:
            def factory(rt: TracingRuntime):
                ...build collections in rt's global space...
                def body(ctx): ...
                return body
            return factory
        return maker

The returned maker regenerates the program per thread count, which is
what a scaling study needs; ``verify=True`` makes every thread check its
results against a serial reference inside the run (a failed benchmark
raises during measurement, so a trace in hand implies verified results).
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence

from repro.pcxx.runtime import TracingRuntime

#: (n_threads) -> (rt -> bodies)
ProgramMaker = Callable[[int], Callable[[TracingRuntime], object]]

#: Flop-charge conventions shared across benchmarks (per element touched).
FLOPS_PER_STENCIL_POINT = 6  # 5-point Jacobi update: 4 adds, 1 sub, 1 mul
FLOPS_PER_TRIDIAG_ROW = 8  # Thomas elimination+backsubstitution per row
FLOPS_PER_KEY_MERGE = 2  # compare + conditional move per key in merge-split


def require_power_of_two(name: str, value: int) -> None:
    """Benchmarks built on pairwise exchanges need power-of-two threads."""
    if value < 1 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value}")


def block_range(total: int, parts: int, index: int) -> range:
    """Contiguous block ``index`` of ``total`` items split into ``parts``.

    Uses ceil-sized blocks (matching the BLOCK distribution rule), so
    trailing parts may be smaller or empty.

    >>> [list(block_range(10, 4, i)) for i in range(4)]
    [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    block = -(-total // parts)
    lo = min(index * block, total)
    hi = min(lo + block, total)
    return range(lo, hi)


def ilog2(n: int) -> int:
    """Exact log2 of a power of two."""
    require_power_of_two("value", n)
    return n.bit_length() - 1
