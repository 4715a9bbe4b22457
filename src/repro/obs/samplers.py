"""Derived series over recorded timelines.

The *write-side* sampling discipline of :mod:`repro.obs` is on state
change: the simulation models sample a counter exactly when its value
may have changed (a message injected or delivered, a queue grown or
drained, a busy span closed), and :class:`~repro.obs.recorder.CounterSeries`
drops the sample when the value is in fact unchanged.  That keeps the
series exact — no clock-driven sampling grid, no aliasing — at a cost
proportional to activity, not to simulated time.

This module is the *read side*: derived series computed from a
finalized :class:`~repro.obs.recorder.Timeline` (bucketed busy
fractions, decimated counter points) used by the ``extrap timeline``
CLI and the docs examples.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.recorder import Timeline, WAIT_CATEGORIES


def busy_fraction_series(
    timeline: Timeline,
    proc: int,
    *,
    n_buckets: int = 32,
    include_waits: bool = False,
) -> List[Tuple[float, float]]:
    """Per-bucket busy fraction for one processor.

    Buckets partition ``[0, end_time]``; each value is the fraction of
    the bucket covered by busy spans (wait episodes excluded unless
    ``include_waits``, since busy time nests inside them and would be
    double-counted).  Returns ``[(bucket_midpoint, fraction), ...]``.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    end = timeline.end_time
    if end <= 0:
        return []
    width = end / n_buckets
    busy = [0.0] * n_buckets
    for s in timeline.spans:
        if s.proc != proc:
            continue
        if not include_waits and s.category in WAIT_CATEGORIES:
            continue
        lo = max(0, min(n_buckets - 1, int(s.t0 / width)))
        hi = max(0, min(n_buckets - 1, int(s.t1 / width)))
        for b in range(lo, hi + 1):
            b0, b1 = b * width, (b + 1) * width
            overlap = min(s.t1, b1) - max(s.t0, b0)
            if overlap > 0:
                busy[b] += overlap
    return [
        ((b + 0.5) * width, min(1.0, busy[b] / width))
        for b in range(n_buckets)
    ]


def utilization_series(
    timeline: Timeline, *, n_buckets: int = 32
) -> Dict[str, List[Tuple[float, float]]]:
    """Mean busy fraction across processors, bucketed over the run.

    Returns a single-series mapping ready for
    :func:`repro.util.asciiplot.ascii_series_plot`.
    """
    if timeline.n_procs == 0 or timeline.end_time <= 0:
        return {"utilization": []}
    per_proc = [
        busy_fraction_series(timeline, p, n_buckets=n_buckets)
        for p in range(timeline.n_procs)
    ]
    out: List[Tuple[float, float]] = []
    for i in range(n_buckets):
        t = per_proc[0][i][0]
        out.append(
            (t, sum(series[i][1] for series in per_proc) / timeline.n_procs)
        )
    return {"utilization": out}


def counter_points(
    timeline: Timeline, name: str, *, max_points: Optional[int] = None
) -> List[Tuple[float, float]]:
    """The (t, value) samples of one counter, optionally thinned.

    Thinning keeps the first and last samples and an even stride in
    between — enough for a terminal plot of a long series.
    """
    try:
        series = timeline.counters[name]
    except KeyError:
        available = ", ".join(timeline.counter_names()) or "(none)"
        raise KeyError(
            f"no counter {name!r} in timeline; available: {available}"
        ) from None
    pts = list(series.samples)
    if max_points is not None and len(pts) > max_points > 2:
        stride = (len(pts) - 1) / (max_points - 1)
        pts = [pts[round(i * stride)] for i in range(max_points)]
    return pts
