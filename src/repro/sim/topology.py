"""Interconnection network topologies.

The remote data access model charges per-hop switching latency and scales
its analytical contention term by the topology's *bisection width* — the
number of links that concurrent traffic can spread across.  Each topology
provides:

* ``hops(src, dst)`` — path length between two processors;
* ``bisection`` — bisection width (capacity proxy for contention);
* ``diameter`` — maximum hop count (reporting aid).

Supported: ``crossbar``, ``bus``, ``ring``, ``mesh2d``, ``torus2d``,
``hypercube`` (n rounded up to a power of two), ``fattree`` (4-ary fat
tree, the CM-5 data network).
"""

from __future__ import annotations

import math
from typing import Dict, Type


class Topology:
    """Base class: a topology over ``n`` processors."""

    name = "abstract"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least 1 processor, got {n}")
        self.n = n

    def hops(self, src: int, dst: int) -> int:
        """Number of network hops between two processors."""
        raise NotImplementedError

    @property
    def bisection(self) -> int:
        """Bisection width (>= 1)."""
        raise NotImplementedError

    def _check(self, src: int, dst: int) -> None:
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise IndexError(f"processor pair ({src}, {dst}) out of range 0..{self.n - 1}")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n}>"


class Crossbar(Topology):
    """Full crossbar: one hop between any pair, bisection n/2."""

    name = "crossbar"

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        return 0 if src == dst else 1

    @property
    def bisection(self) -> int:
        return max(1, self.n // 2)


class Bus(Topology):
    """Shared bus: one hop, but a single shared link (bisection 1)."""

    name = "bus"

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        return 0 if src == dst else 1

    @property
    def bisection(self) -> int:
        return 1


class Ring(Topology):
    """Bidirectional ring."""

    name = "ring"

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        d = abs(src - dst)
        return min(d, self.n - d)

    @property
    def bisection(self) -> int:
        return 2 if self.n > 2 else 1


class Mesh2D(Topology):
    """2-D mesh on a near-square grid (row-major numbering)."""

    name = "mesh2d"

    def __init__(self, n: int):
        super().__init__(n)
        self.cols = max(1, math.isqrt(n))
        self.rows = -(-n // self.cols)

    def _coords(self, p: int) -> tuple[int, int]:
        return divmod(p, self.cols)

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        (r1, c1), (r2, c2) = self._coords(src), self._coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    @property
    def bisection(self) -> int:
        return max(1, min(self.rows, self.cols))


class Torus2D(Mesh2D):
    """2-D torus (wraparound mesh)."""

    name = "torus2d"

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        (r1, c1), (r2, c2) = self._coords(src), self._coords(dst)
        dr = abs(r1 - r2)
        dc = abs(c1 - c2)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)

    @property
    def bisection(self) -> int:
        return max(1, 2 * min(self.rows, self.cols))


class Hypercube(Topology):
    """Binary hypercube; dimension = ceil(log2 n)."""

    name = "hypercube"

    def __init__(self, n: int):
        super().__init__(n)
        self.dim = max(1, (n - 1).bit_length()) if n > 1 else 0

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        return (src ^ dst).bit_count()

    @property
    def bisection(self) -> int:
        return max(1, 2 ** max(0, self.dim - 1))


class FatTree(Topology):
    """4-ary fat tree (the CM-5 data network).

    Processors are leaves; the hop count between two leaves is twice the
    height of their lowest common ancestor (up then down).  The fat tree
    keeps full bisection bandwidth by doubling link capacity per level,
    so bisection ~ n/2.
    """

    name = "fattree"
    arity = 4

    def hops(self, src: int, dst: int) -> int:
        self._check(src, dst)
        if src == dst:
            return 0
        a, b, level = src, dst, 0
        while a != b:
            a //= self.arity
            b //= self.arity
            level += 1
        return 2 * level

    @property
    def bisection(self) -> int:
        return max(1, self.n // 2)


_TOPOLOGIES: Dict[str, Type[Topology]] = {
    cls.name: cls
    for cls in (Crossbar, Bus, Ring, Mesh2D, Torus2D, Hypercube, FatTree)
}


def make_topology(name: str, n: int) -> Topology:
    """Create a topology by name over ``n`` processors."""
    try:
        cls = _TOPOLOGIES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; available: {sorted(_TOPOLOGIES)}"
        ) from None
    return cls(n)


def available_topologies() -> list[str]:
    """Names of all registered topologies."""
    return sorted(_TOPOLOGIES)
