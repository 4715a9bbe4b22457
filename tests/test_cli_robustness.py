"""CLI robustness: validate subcommand, --faults, malformed-trace exits."""

import json

import pytest

from repro.cli import main
from repro.trace.events import EventKind, TraceEvent
from repro.trace.io import write_trace
from repro.trace.trace import Trace, TraceMeta


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "t.jsonl"
    assert main(["trace", "embar", "-n", "4", "-o", str(path)]) == 0
    return path


def plan_file(tmp_path, **fields):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(fields))
    return str(path)


# -- extrap validate ---------------------------------------------------------


def test_validate_ok(trace_path, capsys):
    assert main(["validate", str(trace_path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_invalid_structure(tmp_path, capsys):
    tr = Trace(
        TraceMeta(program="bad", n_threads=2),
        [
            TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
            TraceEvent(1.0, 0, EventKind.THREAD_END),
            TraceEvent(0.0, 1, EventKind.THREAD_BEGIN),
            # thread 1 never ends
        ],
    )
    path = write_trace(tr, tmp_path / "bad.jsonl")
    assert main(["validate", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_validate_no_global_barriers_flag(tmp_path, capsys):
    tr = Trace(
        TraceMeta(program="partial", n_threads=2),
        [
            TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
            TraceEvent(1.0, 0, EventKind.BARRIER_ENTER, barrier_id=0),
            TraceEvent(2.0, 0, EventKind.BARRIER_EXIT, barrier_id=0),
            TraceEvent(3.0, 0, EventKind.THREAD_END),
            TraceEvent(0.0, 1, EventKind.THREAD_BEGIN),
            TraceEvent(3.0, 1, EventKind.THREAD_END),
        ],
    )
    path = write_trace(tr, tmp_path / "partial.jsonl")
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()
    assert main(["validate", str(path), "--no-global-barriers"]) == 0


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.jsonl")]) == 2
    assert "not found" in capsys.readouterr().err


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "garbage.jsonl"
    path.write_text('{"meta": {"program": "x", "n_threads": 1}}\nnot json\n')
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "garbage.jsonl:2" in err


# -- malformed traces exit 2 everywhere -------------------------------------


@pytest.mark.parametrize("command", ["predict", "report"])
def test_malformed_trace_exits_2(tmp_path, capsys, command):
    path = tmp_path / "trunc.jsonl"
    path.write_text('{"meta": {"program": "x", "n_threads": 1}}\n{"t": 1.0,\n')
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "extrap: error:" in err
    assert "trunc.jsonl:2" in err


# -- predict --faults --------------------------------------------------------


def test_predict_with_faults_reports_fault_model(trace_path, tmp_path, capsys):
    plan = plan_file(
        tmp_path,
        seed=7,
        msg_loss_rate=0.2,
        request_timeout=50000.0,
        max_retries=10,
    )
    assert main(["predict", str(trace_path), "--faults", plan]) == 0
    out = capsys.readouterr().out
    assert "fault model:" in out
    assert "dropped" in out


def test_predict_faults_determinism(trace_path, tmp_path, capsys):
    plan = plan_file(
        tmp_path, seed=3, msg_jitter=40.0, msg_loss_rate=0.1,
        request_timeout=50000.0,
    )
    assert main(["predict", str(trace_path), "--faults", plan]) == 0
    first = capsys.readouterr().out
    assert main(["predict", str(trace_path), "--faults", plan]) == 0
    assert capsys.readouterr().out == first


def test_predict_stall_exits_2_with_diagnosis(trace_path, tmp_path, capsys):
    plan = plan_file(
        tmp_path,
        seed=1,
        msg_loss_rate=1.0,
        loss_kinds=["reply"],
        request_timeout=1000.0,
        max_retries=2,
    )
    assert main(["predict", str(trace_path), "--faults", plan]) == 2
    err = capsys.readouterr().err
    assert "stalled" in err
    assert "proc" in err  # names at least one blocked processor
    assert err.count("\n") <= 1, "diagnosis must be one line"


def test_predict_bad_plan_file_exits_2(trace_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"msg_loss_rate": 2.0}')
    assert main(["predict", str(trace_path), "--faults", str(bad)]) == 2
    assert "msg_loss_rate" in capsys.readouterr().err
    capsys.readouterr()
    assert main(
        ["predict", str(trace_path), "--faults", str(tmp_path / "no.json")]
    ) == 2


def test_report_with_faults(trace_path, tmp_path, capsys):
    plan = plan_file(tmp_path, seed=2, msg_jitter=25.0)
    assert main(["report", str(trace_path), "--faults", plan]) == 0
    assert "fault model:" in capsys.readouterr().out


def test_wall_budget_flag_accepted(trace_path, capsys):
    assert main(["predict", str(trace_path), "--wall-budget", "600"]) == 0
    capsys.readouterr()


# -- exit-code contract ------------------------------------------------------
#
# Bad invocations exit 2 with a one-line `extrap: error: ...` message,
# matching argparse's own usage-error code — never a traceback.


def one_error_line(capsys):
    err = capsys.readouterr().err.strip()
    assert "Traceback" not in err
    lines = [l for l in err.splitlines() if l.startswith("extrap: error:")]
    assert len(lines) == 1, err
    return lines[0]


def test_predict_unknown_preset_exit_2(trace_path, capsys):
    assert main(["predict", str(trace_path), "--preset", "cm-5"]) == 2
    line = one_error_line(capsys)
    assert "unknown preset" in line and "cm5" in line


def test_predict_unknown_set_field_exit_2(trace_path, capsys):
    assert main(
        ["predict", str(trace_path), "--set", "processor.mips_ration=0.5"]
    ) == 2
    line = one_error_line(capsys)
    assert "mips_ration" in line


def test_predict_malformed_set_exit_2(trace_path, capsys):
    assert main(["predict", str(trace_path), "--set", "nodots"]) == 2
    assert "group.field=value" in one_error_line(capsys)


def test_predict_nonpositive_wall_budget_exit_2(trace_path, capsys):
    assert main(["predict", str(trace_path), "--wall-budget", "-1"]) == 2
    assert "--wall-budget" in one_error_line(capsys)


def test_report_unknown_preset_exit_2(trace_path, capsys):
    assert main(["report", str(trace_path), "--preset", "nope"]) == 2
    assert "unknown preset" in one_error_line(capsys)


def test_study_bad_processor_list_exit_2(capsys):
    assert main(["study", "embar", "-p", "1,two,4"]) == 2
    assert "processor-count list" in one_error_line(capsys)


def test_study_empty_processor_list_exit_2(capsys):
    assert main(["study", "embar", "-p", ","]) == 2
    assert "empty" in one_error_line(capsys)


def test_study_unknown_preset_exit_2(capsys):
    assert main(["study", "embar", "--preset", "sharedmemory"]) == 2
    line = one_error_line(capsys)
    assert "unknown preset" in line and "shared_memory" in line


@pytest.fixture(scope="module")
def partial_barrier_path(tmp_path_factory):
    """A 2-thread trace where only thread 0 enters barrier 0."""
    tr = Trace(
        TraceMeta(program="partial", n_threads=2),
        [
            TraceEvent(0.0, 0, EventKind.THREAD_BEGIN),
            TraceEvent(1.0, 0, EventKind.BARRIER_ENTER, barrier_id=0),
            TraceEvent(2.0, 0, EventKind.BARRIER_EXIT, barrier_id=0),
            TraceEvent(3.0, 0, EventKind.THREAD_END),
            TraceEvent(0.0, 1, EventKind.THREAD_BEGIN),
            TraceEvent(3.0, 1, EventKind.THREAD_END),
        ],
    )
    return write_trace(tr, tmp_path_factory.mktemp("partial") / "p.jsonl")


@pytest.fixture(scope="module")
def timeline_path(trace_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("timeline") / "run.json"
    assert main(["predict", str(trace_path), "--timeline", str(path)]) == 0
    return path


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["trace", "embar", "-n", "0", "-o", "{tmp}/t.jsonl"], "at least 1 thread"),
        (["machine", "embar", "-n", "0"], "at least 1 node"),
        (["study", "embar", "-p", "0"], "at least 1 thread"),
        (["timeline", "{timeline}", "--ascii", "--width", "3"], "width"),
        (["bench", "--repeats", "0"], "repeats"),
        (["report", "{partial}"], "barrier 0"),
        (["compare", "{partial}", "cm5", "ideal"], "barrier 0"),
        (
            ["validate", "{partial}", "--no-global-barriers", "--diagnose"],
            "barrier 0",
        ),
    ],
    ids=[
        "trace-n0",
        "machine-n0",
        "study-p0",
        "timeline-width3",
        "bench-repeats0",
        "report-partial-barrier",
        "compare-partial-barrier",
        "validate-diagnose-partial-barrier",
    ],
)
def test_library_rejected_value_is_one_error_line(
    argv, expected, timeline_path, partial_barrier_path, tmp_path, capsys
):
    """A value the library rejects with ValueError exits 2 with one
    line, never a traceback."""
    capsys.readouterr()
    fill = {"tmp": tmp_path, "timeline": timeline_path, "partial": partial_barrier_path}
    assert main([a.format(**fill) for a in argv]) == 2
    assert expected in one_error_line(capsys)
