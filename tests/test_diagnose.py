"""The anomaly-detector catalog: synthetic positives, clean-suite quiet,
fault-injected ground truth, and the byte-determinism contract."""

from dataclasses import replace

import pytest

from repro.bench.matmul import MatmulConfig
from repro.bench.matmul import make_program as make_matmul
from repro.bench.suite import BENCHMARKS
from repro.core import presets
from repro.core.pipeline import extrapolate, measure
from repro.diagnose import (
    DEFAULT_THRESHOLDS,
    KINDS,
    DiagnosisReport,
    detect_barrier_imbalance,
    detect_comm_hotspots,
    detect_idle_tail,
    detect_stragglers,
    diagnose,
    make_finding,
)
from repro.experiments.paramsets import figure4_params, suite_configs
from repro.faults import FaultPlan
from repro.obs.recorder import TimelineRecorder

# Seeded ground-truth plans.  Low rate + high factor creates the
# binomial skew a straggler detector must see (a plan slowing *every*
# processor equally is undetectable by construction — nothing is slow
# relative to the fleet).
STRAGGLER_PLAN = FaultPlan(seed=7, straggler_rate=0.08, straggler_factor=16.0)
BARRIER_PLAN = FaultPlan(seed=11, barrier_delay_rate=0.4, barrier_delay=20000.0)

FAULTY_BENCHES = ("embar", "cyclic", "sort")


# -- synthetic timelines -----------------------------------------------------


def _finalize(rec, n_procs, end_time):
    return rec.finalize(n_procs=n_procs, end_time=end_time)


def test_straggler_detected_on_slow_processor():
    rec = TimelineRecorder()
    for p in range(4):
        dur = 1000.0 if p == 3 else 100.0
        for i in range(10):
            rec.span(p, "compute", i * dur, (i + 1) * dur)
    tl = _finalize(rec, 4, 10_000.0)
    findings = detect_stragglers(tl)
    assert [f.proc for f in findings] == [3]
    f = findings[0]
    assert f.kind == "straggler"
    ev = f.evidence_dict()
    assert ev["slowdown"] == pytest.approx(10.0)
    assert ev["n_actions"] == 10


def test_straggler_ignores_heterogeneous_work():
    # Proc 3 runs 3 big actions against the fleet's 10 small ones:
    # different work, not the same work running slow.
    rec = TimelineRecorder()
    for p in range(3):
        for i in range(10):
            rec.span(p, "compute", i * 100.0, (i + 1) * 100.0)
    for i in range(3):
        rec.span(3, "compute", i * 1000.0, (i + 1) * 1000.0)
    tl = _finalize(rec, 4, 3000.0)
    assert detect_stragglers(tl) == []


def test_straggler_needs_enough_computing_procs():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 100.0)
    rec.span(1, "compute", 0.0, 1000.0)
    tl = _finalize(rec, 2, 1000.0)
    assert detect_stragglers(tl) == []


def test_barrier_imbalance_names_the_culprit():
    rec = TimelineRecorder()
    # Balanced compute, but proc 0 spends 90% of the run in one long
    # barrier-wait episode: proc 1 (least wait) arrived last.
    rec.span(0, "compute", 0.0, 100.0)
    rec.span(1, "compute", 0.0, 100.0)
    rec.span(0, "barrier_wait", 100.0, 1000.0)
    tl = _finalize(rec, 2, 1000.0)
    findings = detect_barrier_imbalance(tl)
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "barrier_imbalance"
    assert f.proc == 1  # the culprit, not the victim
    assert f.evidence_dict()["max_wait_frac"] == pytest.approx(0.9)


def test_barrier_imbalance_quiet_when_wait_is_many_short_episodes():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 100.0)
    rec.span(1, "compute", 0.0, 100.0)
    # Same 90% total wait, but split over 10 separated episodes, each
    # under the episode gate: barrier-bound, not a delayed barrier.
    for i in range(10):
        t0 = 100.0 + i * 100.0
        rec.span(0, "barrier_wait", t0, t0 + 90.0)
    tl = _finalize(rec, 2, 1100.0)
    assert detect_barrier_imbalance(tl) == []


def test_barrier_imbalance_quiet_when_compute_unbalanced():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 100.0)
    rec.span(1, "compute", 0.0, 1000.0)
    rec.span(0, "barrier_wait", 100.0, 1000.0)
    tl = _finalize(rec, 2, 1000.0)
    assert detect_barrier_imbalance(tl) == []


def test_comm_hotspot_pair_concentration():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 100.0)
    for i in range(10):
        rec.instant(1, "remote_read", float(i), owner=2, nbytes=8)
    for i, (src, owner) in enumerate([(0, 1), (0, 3), (2, 0), (3, 1)] * 3):
        rec.instant(src, "remote_read", 50.0 + i, owner=owner, nbytes=8)
    tl = _finalize(rec, 4, 100.0)
    findings = detect_comm_hotspots(tl)
    pair = [f for f in findings if "pair_src" in f.evidence_dict()]
    assert len(pair) == 1
    ev = pair[0].evidence_dict()
    assert (ev["pair_src"], ev["pair_owner"]) == (1, 2)
    assert ev["accesses"] == 10 and ev["total_accesses"] == 22


def test_comm_hotspot_receiver_concentration():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 100.0)
    # 16 of 20 accesses land on proc 3 (share 0.8 >= 6/8 and >= 0.5),
    # spread across sources so no single pair dominates.
    srcs = [0, 1, 2, 4, 5, 6, 7, 0] * 2
    for i, src in enumerate(srcs):
        rec.instant(src, "remote_read", float(i), owner=3, nbytes=8)
    for i, owner in enumerate((0, 1, 2, 4)):
        rec.instant(3, "remote_read", 50.0 + i, owner=owner, nbytes=8)
    tl = _finalize(rec, 8, 100.0)
    findings = detect_comm_hotspots(tl)
    recv = [f for f in findings if "inbound_accesses" in f.evidence_dict()]
    assert [f.proc for f in recv] == [3]
    assert recv[0].evidence_dict()["inbound_accesses"] == 16


def test_comm_hotspot_queue_backlog():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 100.0)
    rec.counter("proc2.rxq_depth", 0.0, 10)
    tl = _finalize(rec, 4, 100.0)
    findings = detect_comm_hotspots(tl)
    backlog = [f for f in findings if "mean_rxq_depth" in f.evidence_dict()]
    assert [f.proc for f in backlog] == [2]
    assert backlog[0].evidence_dict()["mean_rxq_depth"] == pytest.approx(10.0)


def test_comm_hotspot_quiet_when_backlog_is_fleet_wide():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 100.0)
    for p in range(4):
        rec.counter(f"proc{p}.rxq_depth", 0.0, 10)
    tl = _finalize(rec, 4, 100.0)
    assert detect_comm_hotspots(tl) == []


def test_idle_tail_detected():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 1000.0)
    rec.span(1, "compute", 0.0, 100.0)
    tl = _finalize(rec, 2, 1000.0)
    findings = detect_idle_tail(tl)
    assert [f.proc for f in findings] == [1]
    assert findings[0].evidence_dict()["tail_frac"] == pytest.approx(0.9)


def test_idle_tail_skips_procs_with_no_work():
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 1000.0)
    rec.span(1, "barrier_wait", 0.0, 1000.0)  # never computes
    tl = _finalize(rec, 2, 1000.0)
    assert detect_idle_tail(tl) == []


def test_empty_and_single_proc_timelines_diagnose_empty():
    assert len(diagnose(_finalize(TimelineRecorder(), 0, 0.0))) == 0
    rec = TimelineRecorder()
    rec.span(0, "compute", 0.0, 100.0)
    assert len(diagnose(_finalize(rec, 1, 100.0))) == 0


# -- report contract ---------------------------------------------------------


def test_report_ranks_by_severity_and_rounds():
    report = DiagnosisReport(
        n_procs=2,
        end_time=1.0,
        findings=[
            make_finding("idle_tail", 0.25, "low", proc=0),
            make_finding("straggler", 1.7, "clamped", proc=1, x=0.123456789),
        ],
    )
    assert [f.kind for f in report.findings] == ["straggler", "idle_tail"]
    assert report.findings[0].severity == 1.0
    assert report.findings[0].evidence_dict()["x"] == 0.123457
    assert report.kinds() == ["straggler", "idle_tail"]  # catalog order
    assert set(report.kinds()) <= set(KINDS)


def test_report_json_shape():
    report = DiagnosisReport(
        n_procs=4,
        end_time=10.0,
        program="toy",
        findings=[make_finding("straggler", 0.5, "s", proc=3, slowdown=5.0)],
        thresholds=DEFAULT_THRESHOLDS.to_dict(),
    )
    doc = report.to_dict()
    assert doc["schema"] == 1
    assert doc["findings"][0]["proc"] == 3
    assert doc["thresholds"]["straggler_slow_factor"] == 3.5
    assert report.to_json().endswith("\n")
    assert "no anomalies" not in report.format()
    empty = DiagnosisReport(n_procs=4, end_time=10.0)
    assert "no anomalies detected" in empty.format()


# -- clean suite runs must diagnose empty ------------------------------------


@pytest.fixture(scope="module")
def suite_timelines():
    """Observed fig4 runs (quick sizes, 8 processors) per benchmark."""
    params = figure4_params()
    configs = suite_configs(quick=True)
    out = {}
    for name, cfg in configs.items():
        maker = BENCHMARKS[name].make_program(cfg)
        trace = measure(maker(8), 8, name=name)
        out[name] = (trace, extrapolate(trace, params, observe=True))
    return out


def test_clean_suite_runs_have_zero_findings(suite_timelines):
    """Acceptance: committed fig4 configurations diagnose empty."""
    noisy = {}
    for name, (_, outcome) in suite_timelines.items():
        report = diagnose(outcome.result.timeline)
        if report.findings:
            noisy[name] = report.kinds()
    assert not noisy, f"false positives on clean runs: {noisy}"


@pytest.mark.parametrize("dists", [("whole", "block"), ("whole", "cyclic")])
def test_clean_matmul_whole_distributions_stay_quiet(dists):
    """The heterogeneous-work matmul layouts (fig9) must not be typed
    as stragglers or barrier faults."""
    rd, cd = dists
    maker = make_matmul(MatmulConfig(size=12, row_dist=rd, col_dist=cd))
    trace = measure(maker(8), 8, name="matmul")
    outcome = extrapolate(trace, presets.cm5(), observe=True)
    report = diagnose(outcome.result.timeline)
    assert not report.findings, report.kinds()


# -- fault-injected runs are ground-truth positives --------------------------


@pytest.mark.parametrize("bench", FAULTY_BENCHES)
def test_straggler_plan_yields_straggler_finding(suite_timelines, bench):
    trace, _ = suite_timelines[bench]
    params = replace(figure4_params(), faults=STRAGGLER_PLAN)
    outcome = extrapolate(trace, params, observe=True)
    report = diagnose(outcome.result.timeline)
    stragglers = report.by_kind("straggler")
    assert stragglers, f"{bench}: no straggler finding ({report.kinds()})"
    # The fault injector tags its victims; the top straggler must be one.
    assert "injected_stragglers" in stragglers[0].evidence_dict()


@pytest.mark.parametrize("bench", FAULTY_BENCHES)
def test_barrier_plan_yields_barrier_finding(suite_timelines, bench):
    trace, _ = suite_timelines[bench]
    params = replace(figure4_params(), faults=BARRIER_PLAN)
    outcome = extrapolate(trace, params, observe=True)
    report = diagnose(outcome.result.timeline)
    barrier = report.by_kind("barrier_imbalance")
    assert barrier, f"{bench}: no barrier finding ({report.kinds()})"
    assert barrier[0].evidence_dict()["injected_delays"] > 0


# -- determinism -------------------------------------------------------------


def test_diagnosis_byte_deterministic_across_runs():
    """Same trace + params => byte-identical report JSON, findings or not."""

    def run():
        cfg = suite_configs(quick=True)["embar"]
        trace = measure(BENCHMARKS["embar"].make_program(cfg)(8), 8, name="embar")
        params = replace(figure4_params(), faults=STRAGGLER_PLAN)
        outcome = extrapolate(trace, params, observe=True)
        return diagnose(outcome.result.timeline).to_json()

    first, second = run(), run()
    assert first == second
    assert '"straggler"' in first
