"""Order pin for the reference machine (:mod:`repro.machine`).

Every suite benchmark, at small sizes on 1, 2, 4 and 8 nodes, runs on
the CM-5 spec, the Paragon spec and a zero-cost spec whose every cost is
0, so each ``if spec.x:`` skip branch is taken and same-time ties pile
up.  Each run is pinned by three sha256 digests:

* ``result``: the whole :class:`~repro.machine.machine.MachineResult`
  (execution time, every ``NodeStats``, every output event, message and
  byte counts);
* ``deliveries``: every ``MachineNode.deliver`` call, in order, as
  ``(now, dst, kind, msg_id, src)``;
* ``pops``: every popped queued call, and every popped event that runs
  at least one callback, as ``(time, priority)``.  Sequence numbers are
  not pinned: an entry that runs nothing (such as the completion of a
  process nobody waits on) may be dropped without moving anything that
  is pinned.

A change to how the machine is driven (generator processes, callback
steps, queued calls) must leave all of them unchanged.  To regenerate after a
deliberate behaviour change::

    PYTHONPATH=src python tests/test_machine_pin.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict

from repro.bench.suite import BENCHMARKS
from repro.des import Event, engine
from repro.machine import CM5_SPEC, PARAGON_SPEC, MachineSpec, run_on_machine
from repro.machine.machine import MachineNode, MachineResult
from tests.test_replay_golden import SMALL_CONFIGS

GOLDEN_PATH = Path(__file__).parent / "data" / "machine_pin_golden.json"

NODE_COUNTS = (1, 2, 4, 8)

#: Every cost the machine can skip is 0 here.
ZERO_SPEC = MachineSpec(
    name="zero",
    local_access_time=0.0,
    msg_startup=0.0,
    byte_time=0.0,
    hop_time=0.0,
    service_time=0.0,
    barrier_entry_time=0.0,
    barrier_exit_time=0.0,
    barrier_latency=0.0,
)
SPECS = {"cm5": CM5_SPEC, "paragon": PARAGON_SPEC, "zero": ZERO_SPEC}


def _sha(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def machine_result_digest(result: MachineResult) -> str:
    """sha256 over everything a machine run measures."""
    return _sha(
        {
            "execution_time": result.execution_time,
            "nodes": [dataclasses.asdict(nd) for nd in result.nodes],
            "threads": [
                [
                    (ev.time, ev.thread, ev.kind.value, ev.barrier_id, ev.owner,
                     ev.nbytes, ev.collection, ev.tag)
                    for ev in thread.events
                ]
                for thread in result.threads
            ],
            "messages": result.messages,
            "message_bytes": result.message_bytes,
        }
    )


def pin(name: str, n: int, spec: MachineSpec) -> Dict[str, str]:
    """The three digests of one machine run."""
    info = BENCHMARKS[name]
    factory = info.make_program(info.make_config(**SMALL_CONFIGS[name]))(n)
    pops = []
    deliveries = []
    heappop = engine.heappop
    deliver = MachineNode.deliver

    def recording_heappop(queue):
        entry = heappop(queue)
        fn, arg = entry[3:]
        if fn is not Event._process or arg.callbacks:
            pops.append(entry[:2])
        return entry

    def recording_deliver(node, msg):
        deliveries.append((node.env.now, msg.dst, msg.kind, msg.msg_id, msg.src))
        deliver(node, msg)

    engine.heappop = recording_heappop
    MachineNode.deliver = recording_deliver
    try:
        result = run_on_machine(factory, n, spec=spec, name=name)
    finally:
        engine.heappop = heappop
        MachineNode.deliver = deliver
    return {
        "result": machine_result_digest(result),
        "deliveries": _sha(deliveries),
        "pops": _sha(pops),
    }


def compute_pins() -> Dict[str, Dict[str, str]]:
    """Pin of every configuration: benchmark x node count x spec."""
    return {
        f"{name}@{n}/{spec_name}": pin(name, n, spec)
        for name in BENCHMARKS
        for n in NODE_COUNTS
        for spec_name, spec in SPECS.items()
    }


def test_machine_matches_pin():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) == len(BENCHMARKS) * len(NODE_COUNTS) * len(SPECS)
    pins = compute_pins()
    assert sorted(pins) == sorted(golden)
    changed = sorted(k for k in golden if pins[k] != golden[k])
    assert not changed, f"{len(changed)} machine runs changed: {changed[:10]}"


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_machine_pin.py --write")
    GOLDEN_PATH.write_text(json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
