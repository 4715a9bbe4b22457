"""HPF-style data distributions.

pC++ distributes collections with per-dimension attributes — BLOCK,
CYCLIC, WHOLE — over an (implicit) thread grid.  The rules here follow
the paper:

* 1-D: BLOCK gives contiguous chunks of ``ceil(size / n)``, CYCLIC deals
  round-robin, WHOLE places everything on thread 0.
* 2-D with both dimensions distributed: the thread grid is
  ``q x q`` with ``q = isqrt(n)`` (integer square root).  When n is not a
  perfect square the trailing ``n - q*q`` threads own no elements — this
  is exactly the artifact the paper observes for Grid/Mgrid, where going
  from 4 to 8 processors brings no improvement because 4 of the 8
  processors sit idle (§4.1).
* 2-D with one WHOLE dimension: the thread grid collapses to ``n x 1`` or
  ``1 x n`` along the distributed dimension.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple


class Dist(enum.Enum):
    """Per-dimension distribution attribute."""

    BLOCK = "block"
    CYCLIC = "cyclic"
    WHOLE = "whole"

    @classmethod
    def parse(cls, s: "str | Dist") -> "Dist":
        if isinstance(s, Dist):
            return s
        try:
            return cls[s.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown distribution attribute {s!r}; expected one of "
                f"{[d.name for d in cls]}"
            ) from None


def _dim_coord(attr: Dist, index: int, extent: int, nprocs: int) -> int:
    """Processor coordinate of ``index`` along one dimension."""
    if attr is Dist.WHOLE or nprocs == 1:
        return 0
    if attr is Dist.BLOCK:
        block = -(-extent // nprocs)  # ceil division
        return index // block
    if attr is Dist.CYCLIC:
        return index % nprocs
    raise AssertionError(attr)


def _dim_local(attr: Dist, coord: int, extent: int, nprocs: int) -> List[int]:
    """Indices owned by processor ``coord`` along one dimension."""
    if attr is Dist.WHOLE or nprocs == 1:
        return list(range(extent)) if coord == 0 else []
    if attr is Dist.BLOCK:
        block = -(-extent // nprocs)
        return list(range(coord * block, min((coord + 1) * block, extent)))
    if attr is Dist.CYCLIC:
        return list(range(coord, extent, nprocs))
    raise AssertionError(attr)


@dataclass(frozen=True)
class Distribution1D:
    """Distribution of a 1-D collection of ``size`` elements over ``n_threads``."""

    size: int
    n_threads: int
    attr: Dist = Dist.BLOCK

    def __post_init__(self):
        if self.size < 0:
            raise ValueError(f"negative size {self.size}")
        if self.n_threads < 1:
            raise ValueError(f"need at least 1 thread, got {self.n_threads}")

    def owner(self, index: int) -> int:
        """Thread owning element ``index``."""
        if not 0 <= index < self.size:
            raise IndexError(f"index {index} out of range 0..{self.size - 1}")
        if self.attr is Dist.WHOLE:
            return 0
        return _dim_coord(self.attr, index, self.size, self.n_threads)

    def local_indices(self, thread: int) -> List[int]:
        """Elements owned by ``thread``, ascending."""
        if not 0 <= thread < self.n_threads:
            raise IndexError(f"thread {thread} out of range")
        return _dim_local(self.attr, thread, self.size, self.n_threads)


@dataclass(frozen=True)
class Distribution2D:
    """Distribution of a ``rows x cols`` collection over ``n_threads``.

    The thread grid shape follows the paper's rules (see module docstring);
    thread id = ``grid_row * grid_cols + grid_col`` in row-major order.
    """

    rows: int
    cols: int
    n_threads: int
    row_attr: Dist = Dist.BLOCK
    col_attr: Dist = Dist.BLOCK

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError(f"negative shape ({self.rows}, {self.cols})")
        if self.n_threads < 1:
            raise ValueError(f"need at least 1 thread, got {self.n_threads}")

    @cached_property
    def grid_shape(self) -> Tuple[int, int]:
        """(grid_rows, grid_cols) of the thread grid (computed once: the
        instance is frozen, and the cache is not a field, so equality
        and hash ignore it)."""
        n = self.n_threads
        rw = self.row_attr is Dist.WHOLE
        cw = self.col_attr is Dist.WHOLE
        if rw and cw:
            return (1, 1)
        if rw:
            return (1, n)
        if cw:
            return (n, 1)
        q = math.isqrt(n)
        return (q, q)

    def owner(self, index: Tuple[int, int]) -> int:
        """Thread owning element ``(row, col)``."""
        r, c = index
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"index {index} out of range {self.rows}x{self.cols}")
        gr, gc = self.grid_shape
        pr = _dim_coord(self.row_attr, r, self.rows, gr)
        pc = _dim_coord(self.col_attr, c, self.cols, gc)
        return pr * gc + pc

    def local_indices(self, thread: int) -> List[Tuple[int, int]]:
        """Elements owned by ``thread``, row-major."""
        if not 0 <= thread < self.n_threads:
            raise IndexError(f"thread {thread} out of range")
        gr, gc = self.grid_shape
        if thread >= gr * gc:
            return []  # idle thread (the 4->8 processor artifact)
        pr, pc = divmod(thread, gc)
        rows = _dim_local(self.row_attr, pr, self.rows, gr)
        cols = _dim_local(self.col_attr, pc, self.cols, gc)
        return [(r, c) for r in rows for c in cols]


def make_distribution(
    shape: int | Tuple[int, ...],
    n_threads: int,
    attrs: str | Dist | Sequence[str | Dist] = Dist.BLOCK,
) -> Distribution1D | Distribution2D:
    """Build a distribution from a shape and attribute spec.

    ``attrs`` may be a single attribute (applied to every dimension) or a
    per-dimension sequence, each given as a :class:`Dist` or its name.
    """
    if isinstance(shape, int):
        shape = (shape,)
    if isinstance(attrs, (str, Dist)):
        attrs = [attrs] * len(shape)
    if len(attrs) != len(shape):
        raise ValueError(
            f"{len(attrs)} attributes for a {len(shape)}-D shape {shape}"
        )
    parsed = [Dist.parse(a) for a in attrs]
    if len(shape) == 1:
        return Distribution1D(shape[0], n_threads, parsed[0])
    if len(shape) == 2:
        return Distribution2D(shape[0], shape[1], n_threads, parsed[0], parsed[1])
    raise ValueError(f"only 1-D and 2-D collections are supported, got {shape}")
