"""Tie-order golden for the DES replay.

Every simulated result is pinned by a sha256 digest of its
``execution_time``, the per-thread output events, the per-processor
stats and the network stats.  The grid crosses every benchmark with
every preset, service policy and barrier algorithm, so an engine change
that reorders events at equal timestamps (``ideal`` has the most ties)
changes some digest even when no summary number in ``results/`` moves.

On top of that, the observed timeline (``observe=True``, exported with
``chrome_trace_json``) of the small grid under every service policy with
a message barrier (``distributed_memory``) and a flag barrier
(``shared_memory``) is pinned by digest: busy spans and counter samples
are derived from the replay, so a change to how busy time is charged
shows there even when the simulated result does not move.

Fault-plan runs are pinned as well: two benchmarks under a message and a
flag barrier, with a loss-and-retry plan and a duplication, jitter,
straggler and barrier-delay plan, each on one thread per processor and
on two threads per processor.  Retry timers, flag-barrier releases and
k > 1 threads are the waits these runs add.

The queue order itself is pinned too: for the small grid and matmul
under every preset, service policy and barrier algorithm, on one thread
per processor and on two, a sha256 of every popped ``(time, priority,
seq)`` entry, the processed event count and the result digest.  A result
digest cannot see a sequence-number shift that leaves results unchanged;
the pop order can.

The digests were produced by the engine before the replay-path event
cuts; an engine change must leave all of them unchanged.  To regenerate
after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_replay_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

import pytest

from repro.bench.suite import BENCHMARKS
from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import TranslatedProgram, translate
from repro.des import engine
from repro.faults.plan import FaultPlan
from repro.obs.export import chrome_trace_json
from repro.sim.result import SimulationResult
from repro.sim.simulator import Simulator, assign_threads, simulate

GOLDEN_PATH = Path(__file__).parent / "data" / "replay_golden.json"
TIMELINE_GOLDEN_PATH = Path(__file__).parent / "data" / "timeline_golden.json"
FAULT_GOLDEN_PATH = Path(__file__).parent / "data" / "fault_golden.json"
POP_GOLDEN_PATH = Path(__file__).parent / "data" / "pop_order_golden.json"

THREADS = 4
PRESETS = ("distributed_memory", "shared_memory", "cm5", "ideal")
POLICIES = ("no_interrupt", "interrupt", "poll")
ALGORITHMS = ("linear", "log", "hardware")

#: Small problem sizes keep the full cross product within a few seconds.
SMALL_CONFIGS = {
    "embar": {"total_pairs": 1 << 12, "chunks": 16},
    "cyclic": {"system_size": 1 << 10},
    "sparse": {"size": 64, "iterations": 2},
    "grid": {"patch_rows": 4, "patch_cols": 4, "m": 4, "iterations": 3},
    "mgrid": {
        "patch_rows": 2, "patch_cols": 4, "m": 4, "cycles": 1, "nu1": 1, "nu2": 1
    },
    "poisson": {"size": 32},
    "sort": {"total_keys": 1 << 10},
    "matmul": {"size": 6},
}

#: Default-size configurations pinned on top of the small grid:
#: ``(benchmark, preset, policy, algorithm)``.  mgrid ``ideal``
#: ``no_interrupt`` is the configuration whose predicted time moves
#: (296 873 -> 247 056 us) when the relay hop in a self-triggered wait
#: is removed.
FULL_SIZE = (
    ("mgrid", "ideal", "no_interrupt", "linear"),
    ("grid", "ideal", "interrupt", "log"),
)

#: Observed-timeline pins: the small grid, message vs flag barriers.
TIMELINE_BENCHMARK = "grid"
TIMELINE_PRESETS = ("distributed_memory", "shared_memory")

#: Fault-plan pins: small grid and matmul, message vs flag barriers,
#: each plan on the identity assignment and on two threads per processor.
FAULT_BENCHMARKS = ("grid", "matmul")
FAULT_PRESETS = ("distributed_memory", "shared_memory")
FAULT_PLANS = {
    # A 200 us timeout also expires on slow replies: spurious retries
    # and late replies, not only retries of dropped requests.
    "loss": FaultPlan(
        seed=7, msg_loss_rate=0.1, request_timeout=200.0, max_retries=8
    ),
    "noise": FaultPlan(
        seed=7,
        msg_dup_rate=0.1,
        msg_jitter=50.0,
        straggler_rate=0.1,
        barrier_delay_rate=0.25,
        barrier_delay=200.0,
    ),
}
FAULT_ASSIGNMENTS = {"identity": None, "paired": [0, 0, 1, 1]}

#: Pop-order pins: small grid and matmul across the full factor grid,
#: on the fault pins' two assignments.
POP_BENCHMARKS = ("grid", "matmul")


def result_digest(result: SimulationResult) -> str:
    """sha256 over everything a replay produces that ordering can move."""
    doc = {
        "execution_time": result.execution_time,
        "threads": [
            [
                (ev.time, ev.thread, ev.kind.value, ev.barrier_id, ev.owner,
                 ev.nbytes, ev.collection, ev.tag)
                for ev in thread.events
            ]
            for thread in result.threads
        ],
        "processors": [dataclasses.asdict(p) for p in result.processors],
        "network": dataclasses.asdict(result.network),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _translated(name: str, small: bool) -> TranslatedProgram:
    info = BENCHMARKS[name]
    cfg = info.make_config(**SMALL_CONFIGS[name]) if small else None
    maker = info.make_program(cfg)
    return translate(measure(maker(THREADS), THREADS, name=name))


def _configs() -> Iterator[Tuple[str, TranslatedProgram, str, str, str]]:
    for name in BENCHMARKS:
        tp = _translated(name, small=True)
        for preset in PRESETS:
            for policy in POLICIES:
                for alg in ALGORITHMS:
                    key = f"{name}@{THREADS}/{preset}/{policy}/{alg}"
                    yield key, tp, preset, policy, alg
    for name, preset, policy, alg in FULL_SIZE:
        tp = _translated(name, small=False)
        yield f"{name}@{THREADS}-full/{preset}/{policy}/{alg}", tp, preset, policy, alg


def make_params(preset: str, policy: str, alg: str):
    return presets.by_name(preset).with_(
        processor={"policy": policy}, barrier={"algorithm": alg}
    )


def compute_digests() -> Dict[str, str]:
    """Digest of every configuration in the golden grid."""
    digests = {}
    for key, tp, preset, policy, alg in _configs():
        digests[key] = result_digest(simulate(tp, make_params(preset, policy, alg)))
    return digests


def compute_timeline_digests() -> Dict[str, str]:
    """sha256 of the exported observed timeline per pinned configuration."""
    tp = _translated(TIMELINE_BENCHMARK, small=True)
    digests = {}
    for preset in TIMELINE_PRESETS:
        for policy in POLICIES:
            params = make_params(preset, policy, "linear")
            result = simulate(tp, params, observe=True)
            blob = chrome_trace_json(result.timeline).encode()
            key = f"{TIMELINE_BENCHMARK}@{THREADS}/{preset}/{policy}/linear"
            digests[key] = hashlib.sha256(blob).hexdigest()
    return digests


def compute_fault_digests() -> Dict[str, str]:
    """Digest of every pinned fault-plan configuration."""
    digests = {}
    for name in FAULT_BENCHMARKS:
        tp = _translated(name, small=True)
        for preset in FAULT_PRESETS:
            for plan_name, plan in FAULT_PLANS.items():
                params = presets.by_name(preset).with_faults(plan)
                for asg_name, assignment in FAULT_ASSIGNMENTS.items():
                    key = f"{name}@{THREADS}/{preset}/{plan_name}/{asg_name}"
                    result = simulate(tp, params, assignment=assignment)
                    digests[key] = result_digest(result)
    return digests


def pop_order(tp: TranslatedProgram, params, assignment) -> Dict[str, object]:
    """One replay's popped-entry digest, event count and result digest.

    Every ``(time, priority, seq)`` entry the engine pops is captured by
    replacing ``repro.des.engine.heappop`` while the replay runs.
    """
    pops = []
    heappop = engine.heappop

    def recording_heappop(queue):
        entry = heappop(queue)
        pops.append(entry[:3])
        return entry

    sim = Simulator(tp, params, assignment=assignment)
    engine.heappop = recording_heappop
    try:
        result = sim.run()
    finally:
        engine.heappop = heappop
    blob = json.dumps(pops, separators=(",", ":"))
    return {
        "pops": hashlib.sha256(blob.encode()).hexdigest(),
        "events": sim.env.processed_event_count,
        "result": result_digest(result),
    }


def compute_pop_orders() -> Dict[str, Dict[str, object]]:
    """Pop-order pin of every configuration in the pop-order grid."""
    pins = {}
    for name in POP_BENCHMARKS:
        tp = _translated(name, small=True)
        for preset in PRESETS:
            for policy in POLICIES:
                for alg in ALGORITHMS:
                    params = make_params(preset, policy, alg)
                    for asg_name, assignment in FAULT_ASSIGNMENTS.items():
                        key = f"{name}@{THREADS}/{preset}/{policy}/{alg}/{asg_name}"
                        pins[key] = pop_order(tp, params, assignment)
    return pins


@pytest.fixture(scope="module")
def digests() -> Dict[str, str]:
    return compute_digests()


def test_grid_covers_every_factor(digests):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    assert len(golden) == len(BENCHMARKS) * len(PRESETS) * len(POLICIES) * len(
        ALGORITHMS
    ) + len(FULL_SIZE)
    assert "mgrid@4-full/ideal/no_interrupt/linear" in golden


def test_replay_matches_golden(digests):
    golden = json.loads(GOLDEN_PATH.read_text())
    changed = sorted(k for k in golden if digests.get(k) != golden[k])
    assert not changed, f"{len(changed)} configurations changed: {changed[:10]}"


@pytest.mark.parametrize("scheme", ("block", "cyclic"))
def test_one_thread_per_processor_replays_as_simulate(digests, scheme):
    """n threads on m = n processors is the paper's model: every
    configuration replays to ``simulate``'s digest under either
    assignment scheme."""
    changed = sorted(
        key
        for key, tp, preset, policy, alg in _configs()
        if result_digest(
            simulate(
                tp,
                make_params(preset, policy, alg),
                assignment=assign_threads(tp.n_threads, tp.n_threads, scheme),
            )
        )
        != digests[key]
    )
    assert not changed, f"{len(changed)} configurations differ: {changed[:10]}"


def test_observed_timeline_matches_golden():
    golden = json.loads(TIMELINE_GOLDEN_PATH.read_text())
    assert len(golden) == len(TIMELINE_PRESETS) * len(POLICIES)
    digests = compute_timeline_digests()
    changed = sorted(k for k in golden if digests.get(k) != golden[k])
    assert sorted(digests) == sorted(golden)
    assert not changed, f"{len(changed)} timelines changed: {changed}"


def test_fault_plan_replay_matches_golden():
    golden = json.loads(FAULT_GOLDEN_PATH.read_text())
    assert len(golden) == len(FAULT_BENCHMARKS) * len(FAULT_PRESETS) * len(
        FAULT_PLANS
    ) * len(FAULT_ASSIGNMENTS)
    digests = compute_fault_digests()
    assert sorted(digests) == sorted(golden)
    changed = sorted(k for k in golden if digests[k] != golden[k])
    assert not changed, f"{len(changed)} fault-plan runs changed: {changed}"


def test_pop_order_matches_golden():
    golden = json.loads(POP_GOLDEN_PATH.read_text())
    assert len(golden) == len(POP_BENCHMARKS) * len(PRESETS) * len(
        POLICIES
    ) * len(ALGORITHMS) * len(FAULT_ASSIGNMENTS)
    pins = compute_pop_orders()
    assert sorted(pins) == sorted(golden)
    changed = sorted(k for k in golden if pins[k] != golden[k])
    assert not changed, f"{len(changed)} pop orders changed: {changed[:10]}"


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_replay_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    for path, compute in (
        (GOLDEN_PATH, compute_digests),
        (TIMELINE_GOLDEN_PATH, compute_timeline_digests),
        (FAULT_GOLDEN_PATH, compute_fault_digests),
        (POP_GOLDEN_PATH, compute_pop_orders),
    ):
        path.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
