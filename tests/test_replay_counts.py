"""Exact queue-hop counts of the timed replays.

For every ``simulate()`` row of ``benchmarks/replay_ab.py`` (default
benchmark sizes), the number of queue entries the engine processes and
the predicted time are pinned.  A change to how the replay waits may
change what a queue entry is, but not how many there are: a dropped or
added hop fails here by its count, before any digest is compared.
"""

from __future__ import annotations

import pytest

from benchmarks.replay_ab import WORKLOADS
from repro.bench.suite import get_benchmark
from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.sim.simulator import Simulator, assign_threads

#: ``(benchmark, threads, preset, processors, policy)`` ->
#: ``(processed_event_count, execution_time)``.
PINS = {
    ("grid", 16, "distributed_memory", 16, None): (8322, 114072.09014084475),
    ("matmul", 8, "distributed_memory", 8, None): (26963, 272004.5014084503),
    ("sparse", 8, "distributed_memory", 8, None): (9378, 55915.93521126761),
    ("grid", 16, "shared_memory", 16, None): (7086, 40965.52802816893),
    ("grid", 16, "distributed_memory", 8, None): (6022, 139980.57605633786),
    ("grid", 16, "distributed_memory", 16, "poll"): (14110, 116950.67464788721),
}


def test_every_timed_row_is_pinned():
    assert set(WORKLOADS) == set(PINS)


@pytest.mark.parametrize("row", list(PINS), ids=lambda r: "-".join(map(str, r)))
def test_replay_event_count_and_time(row):
    name, n, preset, m, policy = row
    tp = translate(measure(get_benchmark(name).make_program()(n), n, name=name))
    params = presets.by_name(preset)
    if policy is not None:
        params = params.with_(processor={"policy": policy})
    sim = Simulator(tp, params, assignment=assign_threads(n, m) if m != n else None)
    result = sim.run()
    assert (sim.env.processed_event_count, result.execution_time) == PINS[row]
