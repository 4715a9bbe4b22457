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
from repro.obs.export import chrome_trace_json
from repro.sim.multithread import simulate_multithreaded
from repro.sim.result import SimulationResult
from repro.sim.simulator import simulate

GOLDEN_PATH = Path(__file__).parent / "data" / "replay_golden.json"
TIMELINE_GOLDEN_PATH = Path(__file__).parent / "data" / "timeline_golden.json"

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
            simulate_multithreaded(
                tp,
                make_params(preset, policy, alg),
                tp.n_threads,
                assignment_scheme=scheme,
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


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_replay_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    for path, compute in (
        (GOLDEN_PATH, compute_digests),
        (TIMELINE_GOLDEN_PATH, compute_timeline_digests),
    ):
        path.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
