"""Wide byte-identity check for the DES replay at default problem sizes.

The tier-1 tie-order golden (``tests/test_replay_golden.py``) runs the
full factor grid at small problem sizes so it stays fast.  A change to
the replay path that creates a coincidental same-time tie only at
realistic sizes would slip past it, so this script pins the same
``result_digest`` over every benchmark at its default size::

    8 benchmarks x {4, 8} threads x 4 presets x 3 policies x 3 algorithms

which is 576 configurations, each translated once per benchmark and
thread count.  Usage, from the repository root::

    python benchmarks/replay_wide.py --check   # exit 1 on any changed digest
    python benchmarks/replay_wide.py --write   # regenerate after a deliberate change

A run takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.bench.suite import BENCHMARKS  # noqa: E402
from repro.core.pipeline import measure  # noqa: E402
from repro.core.translation import translate  # noqa: E402
from repro.sim.simulator import simulate  # noqa: E402
from tests.test_replay_golden import (  # noqa: E402
    ALGORITHMS,
    POLICIES,
    PRESETS,
    make_params,
    result_digest,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "replay_wide.json"
THREADS = (4, 8)


def compute_digests() -> Dict[str, str]:
    """``result_digest`` of every default-size configuration."""
    digests = {}
    for name, info in BENCHMARKS.items():
        for n in THREADS:
            tp = translate(measure(info.make_program(None)(n), n, name=name))
            for preset in PRESETS:
                for policy in POLICIES:
                    for alg in ALGORITHMS:
                        result = simulate(tp, make_params(preset, policy, alg))
                        key = f"{name}@{n}/{preset}/{policy}/{alg}"
                        digests[key] = result_digest(result)
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare against the committed digests")
    mode.add_argument("--write", action="store_true",
                      help="regenerate the committed digests")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    digests = compute_digests()
    elapsed = time.perf_counter() - t0
    if args.write:
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN_PATH} ({elapsed:.0f}s)")
        return 0

    golden = json.loads(GOLDEN_PATH.read_text())
    changed = sorted(k for k in golden.keys() | digests.keys()
                     if golden.get(k) != digests.get(k))
    if changed:
        print(f"{len(changed)} of {len(golden)} configurations changed:")
        for key in changed:
            print(f"  {key}")
        return 1
    print(f"all {len(golden)} configurations byte-identical ({elapsed:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
