"""SweepSpec validation and deterministic expansion."""

import json

import pytest

from repro.core.parameters import RemoteServicePolicy
from repro.sweep.spec import SweepPoint, SweepSpec, params_canonical_dict


def grid_spec(**over):
    d = {
        "name": "g",
        "preset": "cm5",
        "grid": {
            "network.hop_time": [0.1, 0.2],
            "processor.mips_ratio": [0.5, 1.0],
        },
    }
    d.update(over)
    return d


def test_grid_expansion_order_is_deterministic():
    spec = SweepSpec.from_dict(grid_spec())
    points = spec.expand()
    assert len(points) == len(spec) == 4
    assert [p.index for p in points] == [0, 1, 2, 3]
    # Last axis fastest, axes in spec order.
    assert points[0].as_dict() == {
        "network.hop_time": 0.1,
        "processor.mips_ratio": 0.5,
    }
    assert points[1].as_dict() == {
        "network.hop_time": 0.1,
        "processor.mips_ratio": 1.0,
    }
    assert points[3].as_dict() == {
        "network.hop_time": 0.2,
        "processor.mips_ratio": 1.0,
    }
    # Expansion is pure: same spec, same points.
    assert spec.expand() == points


def test_points_mode_preserves_order():
    spec = SweepSpec.from_dict(
        {
            "name": "p",
            "points": [
                {"preset": "cm5"},
                {"network.hop_time": 1.0},
                {},
            ],
        }
    )
    points = spec.expand()
    assert len(points) == 3
    assert points[0].as_dict() == {"preset": "cm5"}
    assert points[2].label() == "baseline"


def test_point_params_resolution():
    spec = SweepSpec.from_dict(grid_spec())
    p = spec.expand()[3]
    params = p.params(spec.preset)
    assert params.network.hop_time == 0.2
    assert params.processor.mips_ratio == 1.0
    # Untouched fields keep the preset's values.
    assert params.network.topology == "fattree"


def test_preset_axis_swaps_base():
    spec = SweepSpec.from_dict(
        {"points": [{"preset": "ideal"}, {}], "preset": "cm5"}
    )
    pts = spec.expand()
    assert pts[0].params("cm5").network.comm_startup_time == 0.0
    assert pts[1].params("cm5").network.comm_startup_time == 10.0


def test_faults_axis_full_plan_and_field():
    spec = SweepSpec.from_dict(
        {
            "points": [
                {"faults": {"seed": 3, "msg_loss_rate": 0.1}},
                {"faults": None},
                {"faults.msg_jitter": 5.0},
            ]
        }
    )
    pts = spec.expand()
    assert pts[0].params("cm5").faults.msg_loss_rate == 0.1
    assert pts[1].params("cm5").faults is None
    assert pts[2].params("cm5").faults.msg_jitter == 5.0


def test_unknown_group_suggests():
    with pytest.raises(ValueError, match="netwrok"):
        SweepSpec.from_dict({"grid": {"netwrok.hop_time": [1.0]}})
    with pytest.raises(ValueError, match="did you mean 'network'"):
        SweepSpec.from_dict({"grid": {"netwrok.hop_time": [1.0]}})


def test_unknown_field_suggests():
    with pytest.raises(ValueError, match="did you mean 'hop_time'"):
        SweepSpec.from_dict({"grid": {"network.hop_tme": [1.0]}})


def test_unknown_preset_value_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        SweepSpec.from_dict({"grid": {"preset": ["cm6"]}})


def test_bad_field_value_fails_at_load_time():
    with pytest.raises(ValueError, match="mips_ratio"):
        SweepSpec.from_dict({"grid": {"processor.mips_ratio": [-1.0]}})


def test_needs_exactly_one_of_grid_points():
    with pytest.raises(ValueError, match="exactly one"):
        SweepSpec.from_dict({"name": "x"})
    with pytest.raises(ValueError, match="exactly one"):
        SweepSpec.from_dict(
            {"grid": {"network.hop_time": [1.0]}, "points": [{}]}
        )


def test_unknown_spec_field_suggests():
    with pytest.raises(ValueError, match="pointz"):
        SweepSpec.from_dict({"pointz": [{}]})


def test_n_threads_axis_validation():
    with pytest.raises(ValueError, match="n_threads"):
        SweepSpec.from_dict({"grid": {"n_threads": [0]}})
    spec = SweepSpec.from_dict(
        {"grid": {"n_threads": [2, 4]}, "benchmark": "embar"}
    )
    assert [p.n_threads for p in spec.expand()] == [2, 4]


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(grid_spec()))
    spec = SweepSpec.from_file(path)
    assert SweepSpec.from_dict(spec.to_dict()).expand() == spec.expand()


def test_from_file_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ValueError, match="bad.json"):
        SweepSpec.from_file(path)
    path.write_text('{"grid": {"bogus.field": [1]}}')
    with pytest.raises(ValueError, match="bad.json"):
        SweepSpec.from_file(path)


def test_params_canonical_dict_is_json_safe_and_name_free():
    spec = SweepSpec.from_dict(grid_spec())
    params = spec.expand()[0].params("cm5")
    d = params_canonical_dict(params)
    blob = json.dumps(d, sort_keys=True)
    assert "cm5" not in blob  # cosmetic name excluded from cache identity
    assert d["processor"]["policy"] == RemoteServicePolicy.INTERRUPT.value
    assert d["faults"] is None
    # Stable across calls.
    assert params_canonical_dict(params) == d


def test_point_label_stable():
    p = SweepPoint(0, (("network.hop_time", 0.5), ("preset", "cm5")))
    assert p.label() == "network.hop_time=0.5 preset=cm5"
