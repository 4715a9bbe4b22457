"""CLI: timeline recording/rendering, error codes, bench --update-baseline,
and the profile export round trip."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "grid.jsonl"
    assert main(["trace", "grid", "-n", "4", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def timeline_file(tmp_path_factory, traced):
    out = tmp_path_factory.mktemp("timelines") / "run.json"
    assert (
        main(
            [
                "predict",
                str(traced),
                "--preset",
                "distributed_memory",
                "--timeline",
                str(out),
            ]
        )
        == 0
    )
    return out


def test_predict_timeline_writes_chrome_json(timeline_file, capsys):
    data = json.loads(timeline_file.read_text())
    assert data["traceEvents"]
    assert all(e["ph"] in {"X", "i", "C"} for e in data["traceEvents"])
    assert data["otherData"]["n_processors"] == 4


def test_timeline_default_summary(timeline_file, capsys):
    assert main(["timeline", str(timeline_file)]) == 0
    out = capsys.readouterr().out
    assert "4 processors" in out
    assert "compute" in out
    assert "net.in_flight" in out


def test_timeline_ascii_gantt(timeline_file, capsys):
    """Acceptance: `extrap timeline --ascii` renders a per-proc Gantt."""
    assert main(["timeline", str(timeline_file), "--ascii"]) == 0
    out = capsys.readouterr().out
    assert "timeline gantt" in out
    for proc in range(4):
        assert f"p{proc} " in out
    assert "legend:" in out


def test_timeline_counter_plot(timeline_file, capsys):
    assert (
        main(["timeline", str(timeline_file), "--counter", "net.in_flight"])
        == 0
    )
    out = capsys.readouterr().out
    assert "net.in_flight" in out
    assert main(["timeline", str(timeline_file), "--counter", "nope"]) == 2
    err = capsys.readouterr().err
    assert "no counter" in err


def test_timeline_csv_and_reexport(timeline_file, tmp_path, capsys):
    csv_path = tmp_path / "counters.csv"
    out_path = tmp_path / "normalized.json"
    assert (
        main(
            [
                "timeline",
                str(timeline_file),
                "--csv",
                str(csv_path),
                "-o",
                str(out_path),
            ]
        )
        == 0
    )
    assert csv_path.read_text().startswith("counter,t_us,value")
    # Normal form: re-export of a loaded timeline is byte-identical.
    assert out_path.read_bytes() == timeline_file.read_bytes()


def test_timeline_determinism_via_cli(traced, tmp_path):
    """Acceptance: same seed + params => byte-identical exports."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["predict", str(traced), "--preset", "cm5"]
    assert main(base + ["--timeline", str(a)]) == 0
    assert main(base + ["--timeline", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- missing-input error paths (one-line error, exit 2, no traceback) ------


def test_predict_missing_trace(capsys):
    assert main(["predict", "does-not-exist.jsonl"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("extrap: error:")
    assert "not found" in err


def test_report_and_compare_missing_trace(capsys):
    assert main(["report", "does-not-exist.jsonl"]) == 2
    assert "not found" in capsys.readouterr().err
    assert main(["compare", "does-not-exist.jsonl", "cm5"]) == 2
    assert "not found" in capsys.readouterr().err


def test_timeline_missing_file(capsys):
    assert main(["timeline", "does-not-exist.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("extrap: error:")


def test_timeline_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["timeline", str(bad)]) == 2
    assert "traceEvents" in capsys.readouterr().err


def test_trace_unwritable_output(capsys):
    assert (
        main(["trace", "embar", "-n", "2", "-o", "/no/such/dir/t.jsonl"]) == 2
    )
    err = capsys.readouterr().err
    assert err.startswith("extrap: error:")


# -- bench --update-baseline ------------------------------------------------


def test_bench_update_baseline(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "BENCH_small.json"
    args = [
        "bench",
        "--scale",
        "0.01",
        "--repeats",
        "1",
        "--baseline",
        str(baseline),
        "--update-baseline",
    ]
    # First run: no baseline yet — creates it.
    assert main(args) == 0
    out = capsys.readouterr().out
    assert str(baseline) in out  # "wrote <path>"
    assert baseline.exists()
    data = json.loads(baseline.read_text())
    assert data["schema"] == 1
    assert set(data["workloads"]) == {
        "timeout_chain", "pingpong", "simulator", "sweep", "serve", "diagnose",
        "sampling",
    }
    # Second run (one workload) compares against it, then rewrites in place.
    assert main(args + ["--only", "timeout_chain"]) == 0
    out = capsys.readouterr().out
    assert "x baseline" in out
    assert json.loads(baseline.read_text())["schema"] == 1


def test_bench_update_baseline_only_keeps_other_rows(tmp_path, capsys):
    baseline = tmp_path / "BENCH_small.json"
    other = {"best_s": 1.0, "events": 7, "events_per_s": 7.0, "size": 1}
    stale = {"best_s": 9.0, "events": 1, "events_per_s": 0.1, "size": 1}
    baseline.write_text(
        json.dumps(
            {
                "schema": 1,
                "repeats": 3,
                "scale": 1.0,
                "workloads": {"pingpong": other, "timeout_chain": stale},
            }
        )
    )
    args = [
        "bench", "--only", "timeout_chain", "--scale", "0.01", "--repeats", "1",
        "--baseline", str(baseline), "--update-baseline",
    ]
    assert main(args) == 0
    capsys.readouterr()
    data = json.loads(baseline.read_text())
    assert data["schema"] == 1
    assert set(data["workloads"]) == {"pingpong", "timeout_chain"}
    assert data["workloads"]["pingpong"] == other
    assert data["workloads"]["timeout_chain"] != stale
    assert data["workloads"]["timeout_chain"]["events"] > 1


# -- PR-1 profile export through the CLI ------------------------------------


def test_predict_profile_prints_and_roundtrips(traced, capsys):
    assert main(["predict", str(traced), "--profile"]) == 0
    out = capsys.readouterr().out
    assert "simulation profile" in out
    assert "events/s" in out


def test_profile_as_dict_roundtrips_to_json(traced):
    from repro.core import presets
    from repro.core.pipeline import extrapolate
    from repro.trace import read_trace

    trace = read_trace(traced)
    outcome = extrapolate(trace, presets.distributed_memory(), profile=True)
    profile = outcome.result.profile
    blob = json.dumps(profile.as_dict(), sort_keys=True)
    loaded = json.loads(blob)
    assert loaded["counters"]["events_total"] == (
        profile.counters.events_total
    )
    assert loaded["sim_time_us"] == outcome.result.execution_time
    assert set(loaded["phases"]) >= {"spawn", "replay", "collect"}


def test_profile_survives_report(traced, capsys):
    assert main(["report", str(traced), "--profile"]) == 0
    out = capsys.readouterr().out
    assert "extrapolation report" in out
    assert "simulation profile" in out
