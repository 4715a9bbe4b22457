"""Phase clustering: seeded k-means over interval signatures.

Stdlib-only and fully deterministic: k-means++ initialisation draws
from ``random.Random(seed)`` (several restarts per candidate k, lowest
RSS wins), Lloyd iterations break ties by lowest index, and the number
of clusters is chosen by a BIC-style score — the same shape SimPoint
uses to stop adding phases once extra clusters stop paying for their
parameters.

After the BIC pick, clusters whose members straggle too far from their
representative (spread above :data:`_SPLIT_SPREAD`) are bisected until
every phase is tight or ``max_phases`` is exhausted — BIC optimises
global fit, but reconstitution error is per-cluster, so one lumped
heterogeneous phase (e.g. a multigrid V-cycle's coarse-level giants
pooled with fine-level slivers) can dominate the estimate even when the
overall RSS looks fine.

Each cluster is represented by its *medoid* — the member interval
closest to the centroid — because a medoid is a real interval that can
be simulated.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.sampling.config import SamplingConfig
from repro.sampling.intervals import IntervalSplit

_EPS = 1e-12

#: Noise floor for the BIC variance estimate, as a fraction of the
#: normalised feature range: signature differences below this are treated
#: as measurement noise and never justify an extra phase.
_NOISE_FLOOR = 0.03

#: Lloyd iterations per k-means run, at most (runs stop earlier once
#: the labels stabilise).
_MAX_ITER = 64

#: k-means restarts per candidate k (deterministic seeds derived from
#: the config seed); the lowest-RSS run wins.
_RESTARTS = 5

#: Spread threshold above which a cluster is bisected (normalised
#: signature-space distance).  Deliberately tight: max-abs
#: normalisation squashes within-cluster variation for dimensions with
#: a large global range, so even a small spread can hide a several-fold
#: difference in simulated time.  Splitting is bounded by ``max_phases``
#: either way.
_SPLIT_SPREAD = 0.02


@dataclass(frozen=True)
class PhaseCluster:
    """One program phase: a set of similar intervals.

    ``weight`` (= member count) is the multiplier applied to the
    representative's simulated metrics during reconstitution; ``spread``
    is the mean distance of members to the representative in normalised
    signature space — 0 for a perfectly homogeneous phase — and drives
    the error bars.
    """

    representative: int
    members: Tuple[int, ...]
    weight: int
    spread: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "representative": self.representative,
            "members": list(self.members),
            "weight": self.weight,
            "spread": self.spread,
        }


@dataclass
class SamplingPlan:
    """Complete, reproducible description of one sampling decision."""

    mode: str
    interval_events: int
    max_phases: int
    seed: int
    n_intervals: int
    events_total: int
    k: int
    clusters: List[PhaseCluster]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "interval_events": self.interval_events,
            "max_phases": self.max_phases,
            "seed": self.seed,
            "n_intervals": self.n_intervals,
            "events_total": self.events_total,
            "k": self.k,
            "clusters": [c.to_dict() for c in self.clusters],
        }


def normalize(vectors: Sequence[Sequence[float]]) -> List[Tuple[float, ...]]:
    """Scale each dimension by its max absolute value (into [-1, 1]).

    Keeps byte counts from drowning out event counts in the distance
    metric.  Deterministic; all-zero dimensions stay zero.
    """
    if not vectors:
        return []
    d = len(vectors[0])
    scale = [0.0] * d
    for v in vectors:
        for j in range(d):
            a = abs(v[j])
            if a > scale[j]:
                scale[j] = a
    return [
        tuple(v[j] / scale[j] if scale[j] > 0 else 0.0 for j in range(d))
        for v in vectors
    ]


def _dist2(a: Sequence[float], b: Sequence[float]) -> float:
    return sum((x - y) * (x - y) for x, y in zip(a, b))


def kmeans(
    points: Sequence[Tuple[float, ...]], k: int, seed: int
) -> Tuple[List[int], List[Tuple[float, ...]], float]:
    """Deterministic seeded k-means: ``(labels, centroids, rss)``.

    k-means++ initialisation (candidate probability proportional to
    ``D^2``), Lloyd iterations until labels stabilise (or
    :data:`_MAX_ITER`), nearest-centroid ties broken by lowest centroid
    index.  Centroids are member means and ``rss`` is the sum of squared
    distances.  Clusters may come back empty for pathological inputs;
    the caller drops them.
    """
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    rng = random.Random(seed)

    # k-means++ seeding.
    centroids: List[Tuple[float, ...]] = [points[rng.randrange(n)]]
    d2 = [_dist2(p, centroids[0]) for p in points]
    while len(centroids) < k:
        total = sum(d2)
        if total <= _EPS:
            # All remaining points coincide with a centroid; fill with
            # the first point not already chosen (deterministic).
            picked = 0
            for i, p in enumerate(points):
                if p not in centroids:
                    picked = i
                    break
            centroids.append(points[picked])
        else:
            r = rng.random() * total
            acc = 0.0
            pick = n - 1
            for i, dd in enumerate(d2):
                acc += dd
                if acc >= r:
                    pick = i
                    break
            centroids.append(points[pick])
        d2 = [min(old, _dist2(p, centroids[-1])) for old, p in zip(d2, points)]

    labels = [0] * n
    for _ in range(_MAX_ITER):
        changed = False
        for i, p in enumerate(points):
            best, best_d = 0, _dist2(p, centroids[0])
            for c in range(1, len(centroids)):
                dd = _dist2(p, centroids[c])
                if dd < best_d - _EPS:
                    best, best_d = c, dd
            if labels[i] != best:
                labels[i] = best
                changed = True
        # Recompute centroids as member means; empty clusters keep their
        # previous centroid (and are dropped by the caller if they stay
        # empty).
        sums = [[0.0] * len(points[0]) for _ in centroids]
        counts = [0] * len(centroids)
        for i, p in enumerate(points):
            counts[labels[i]] += 1
            row = sums[labels[i]]
            for j, x in enumerate(p):
                row[j] += x
        centroids = [
            tuple(x / counts[c] for x in sums[c]) if counts[c] else centroids[c]
            for c in range(len(centroids))
        ]
        if not changed:
            break

    rss = sum(_dist2(p, centroids[labels[i]]) for i, p in enumerate(points))
    return labels, centroids, rss


def _bic_score(n: int, d: int, k: int, rss: float) -> float:
    # Spherical-Gaussian BIC, lower is better:
    #   -2 ln L ~ n·d·ln(σ²),  penalty = (k·d params)·ln n,
    # with σ² floored at _NOISE_FLOOR² so rss → 0 cannot buy unbounded
    # likelihood and k collapses to the coarsest phase structure that
    # explains the intervals to within the floor.
    mse = rss / (n * d) + _NOISE_FLOOR * _NOISE_FLOOR
    return n * d * math.log(mse) + k * d * math.log(max(n, 2))


def _best_kmeans(
    vectors: List[Tuple[float, ...]], k: int, seed: int
) -> Tuple[List[int], List[Tuple[float, ...]], float]:
    """Lowest-RSS run over :data:`_RESTARTS` deterministic restarts.

    k-means++ alone can land in a poor local optimum that lumps very
    different intervals into one phase.
    """
    run = None
    for restart in range(_RESTARTS):
        labels, centroids, rss = kmeans(vectors, k, seed * _RESTARTS + restart)
        if run is None or rss < run[2] - _EPS:
            run = (labels, centroids, rss)
    assert run is not None
    return run


def _make_cluster(
    members: List[int],
    vectors: List[Tuple[float, ...]],
    centroid: Tuple[float, ...],
) -> PhaseCluster:
    # Medoid: member closest to the centroid, ties to lowest index.
    medoid = min(members, key=lambda i: (_dist2(vectors[i], centroid), i))
    spread = sum(
        math.sqrt(_dist2(vectors[i], vectors[medoid])) for i in members
    ) / len(members)
    return PhaseCluster(
        representative=medoid,
        members=tuple(sorted(members)),
        weight=len(members),
        spread=spread,
    )


def _centroid(members: List[int], vectors: List[Tuple[float, ...]]):
    d = len(vectors[0])
    acc = [0.0] * d
    for i in members:
        for j, x in enumerate(vectors[i]):
            acc[j] += x
    return tuple(x / len(members) for x in acc)


def build_plan(split: IntervalSplit, config: SamplingConfig) -> SamplingPlan:
    """Cluster a split's intervals into a :class:`SamplingPlan`."""
    intervals = split.intervals
    if not intervals:
        raise ValueError("cannot build a sampling plan for an empty trace")
    vectors = normalize([iv.signature for iv in intervals])
    n = len(vectors)
    d = len(vectors[0])
    k_cap = min(config.max_phases, n)

    best: Tuple[float, int, List[int], List[Tuple[float, ...]]] | None = None
    for k in range(1, k_cap + 1):
        labels, centroids, rss = _best_kmeans(vectors, k, config.seed)
        score = _bic_score(n, d, k, rss)
        if best is None or score < best[0] - 1e-9:
            best = (score, k, labels, centroids)
    assert best is not None
    _, k, labels, centroids = best

    clusters: List[PhaseCluster] = []
    for c in range(k):
        members = [i for i in range(n) if labels[i] == c]
        if members:
            clusters.append(_make_cluster(members, vectors, centroids[c]))

    # Refinement: BIC optimises global fit, but estimation error is
    # per-cluster — bisect the loosest phase until every spread is under
    # the threshold or the phase budget is spent.
    while len(clusters) < k_cap:
        loose = max(
            (c for c in clusters if len(c.members) > 1 and c.spread > _SPLIT_SPREAD),
            key=lambda c: (c.spread, -c.representative),
            default=None,
        )
        if loose is None:
            break
        members = list(loose.members)
        sub_vectors = [vectors[i] for i in members]
        sub_labels, sub_centroids, _ = _best_kmeans(sub_vectors, 2, config.seed)
        halves = [
            [members[j] for j in range(len(members)) if sub_labels[j] == h]
            for h in (0, 1)
        ]
        if not halves[0] or not halves[1]:
            break  # refused to split; avoid looping forever
        clusters.remove(loose)
        for half in halves:
            clusters.append(
                _make_cluster(half, vectors, _centroid(half, vectors))
            )

    clusters.sort(key=lambda c: c.representative)

    return SamplingPlan(
        mode=split.mode,
        interval_events=split.interval_events,
        max_phases=config.max_phases,
        seed=config.seed,
        n_intervals=n,
        events_total=split.events_total,
        k=len(clusters),
        clusters=clusters,
    )
