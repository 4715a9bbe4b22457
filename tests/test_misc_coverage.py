"""Focused tests for corners not covered elsewhere."""

import pytest

from repro.des import Environment
from repro.machine.network import PortNetwork, WireMessage
from repro.machine.spec import MachineSpec


# -- CLI override parsing ------------------------------------------------------


def test_cli_override_types():
    from repro.cli import _apply_overrides
    from repro.core import presets

    p = _apply_overrides(
        presets.ideal(),
        [
            "processor.mips_ratio=0.25",
            "network.request_nbytes=32",
            "network.contention=TRUE",
            "network.topology=hypercube",
            "barrier.by_msgs=false",
        ],
    )
    assert p.processor.mips_ratio == 0.25
    assert p.network.request_nbytes == 32
    assert p.network.contention is True
    assert p.network.topology == "hypercube"
    assert p.barrier.by_msgs is False


def test_cli_override_bad_group():
    from repro.cli import _apply_overrides
    from repro.core import presets

    with pytest.raises(ValueError, match="group.field=value"):
        _apply_overrides(presets.ideal(), ["nope"])
    with pytest.raises(ValueError, match="martian"):
        _apply_overrides(presets.ideal(), ["martian.x=1"])


# -- machine port network directly -----------------------------------------------


def test_port_network_injection_serialises():
    """Two back-to-back sends from one node: the second waits for the
    first's injection occupancy."""
    env = Environment()
    spec = MachineSpec(msg_startup=0.0, byte_time=1.0, hop_time=0.0, header_nbytes=0)
    net = PortNetwork(env, 3, spec)
    arrivals = []
    net.attach([lambda m, i=i: arrivals.append((i, env.now)) for i in range(3)])

    injected = []

    def send_second(ev):
        second = WireMessage("reply", src=0, dst=2, nbytes=100, msg_id=2)
        net.send(second, then=lambda ev: injected.append(env.now))

    net.send(WireMessage("reply", src=0, dst=1, nbytes=100, msg_id=1), send_second)
    env.run()
    assert injected == [pytest.approx(200.0)]
    # injection 100us each, ejection 100us: first delivered at 200,
    # second injected 100..200, ejected 200..300.
    times = sorted(t for _, t in arrivals)
    assert times[0] == pytest.approx(200.0)
    assert times[1] == pytest.approx(300.0)


def test_port_network_rejects_self_and_unattached():
    env = Environment()
    net = PortNetwork(env, 2, MachineSpec())
    resumed = []

    with pytest.raises(RuntimeError, match="not attached"):
        net.send(
            WireMessage("reply", src=0, dst=1, nbytes=1, msg_id=1), resumed.append
        )

    net.attach([lambda m: None, lambda m: None])

    with pytest.raises(ValueError, match="to self"):
        net.send(
            WireMessage("reply", src=1, dst=1, nbytes=1, msg_id=2), resumed.append
        )
    env.run()
    assert resumed == [] and net.stats.messages == 0


def test_port_network_hops_use_spec_topology():
    env = Environment()
    mesh = MachineSpec(topology="mesh2d")
    net = PortNetwork(env, 16, mesh)
    assert net.hops(0, 15) == 6  # Manhattan across a 4x4 mesh
    cm5 = MachineSpec()
    net2 = PortNetwork(env, 16, cm5)
    assert net2.hops(0, 15) == 4  # fat-tree up-down


# -- fig4 filters power-of-two-only benchmarks ---------------------------------


def test_fig4_pow2_filter():
    from repro.experiments import fig4

    res = fig4.run(
        quick=True, benchmarks=("sort",), processor_counts=(1, 2, 3, 4)
    )
    assert sorted(res.series["sort"]) == [1, 2, 4]


# -- ascii plot series priority --------------------------------------------------


def test_asciiplot_collision_keeps_first_series():
    from repro.util.asciiplot import ascii_series_plot

    out = ascii_series_plot(
        {"first": [(1, 1.0)], "second": [(1, 1.0)]}, width=8, height=3
    )
    # grid rows sit between the border lines (no title given).
    body = "\n".join(out.splitlines()[1:4])
    assert "o" in body  # first series' mark wins the cell
    assert "x" not in body
