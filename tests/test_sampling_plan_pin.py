"""Pin of the sampling plans built for the suite benchmarks.

For every suite benchmark at 8 threads (its default program and size),
the measured trace is split and clustered under two configurations: the
default :class:`~repro.sampling.SamplingConfig` and an ``events``-mode
one with a small interval and another seed.  Each plan is pinned by the
sha256 of ``json.dumps(plan.to_dict(), sort_keys=True)``, so a change to
the interval split, the signatures, the normalisation or the seeded
k-means that moves any representative, member, weight or spread fails
here.  To regenerate after a deliberate behaviour change::

    PYTHONPATH=src python tests/test_sampling_plan_pin.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.bench.suite import BENCHMARKS
from repro.core.pipeline import measure
from repro.sampling import SamplingConfig, build_plan, split_trace

GOLDEN_PATH = Path(__file__).parent / "data" / "sampling_plan_golden.json"

N_THREADS = 8

CONFIGS = {
    "default": SamplingConfig(),
    "events64": SamplingConfig(mode="events", interval_events=64, seed=3),
}


def compute_pins() -> Dict[str, str]:
    """sha256 of every pinned plan, keyed ``benchmark/config``."""
    pins = {}
    for name, info in BENCHMARKS.items():
        trace = measure(info.make_program()(N_THREADS), N_THREADS, name=name)
        for label, config in CONFIGS.items():
            plan = build_plan(split_trace(trace, config), config)
            blob = json.dumps(plan.to_dict(), sort_keys=True)
            pins[f"{name}/{label}"] = hashlib.sha256(blob.encode()).hexdigest()
    return pins


def test_sampling_plans_match_pin():
    golden = json.loads(GOLDEN_PATH.read_text())
    pins = compute_pins()
    assert sorted(pins) == sorted(golden)
    changed = sorted(k for k in golden if pins[k] != golden[k])
    assert not changed, f"{len(changed)} sampling plans changed: {changed}"


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_sampling_plan_pin.py --write")
    GOLDEN_PATH.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
