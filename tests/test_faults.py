"""Fault injection and the unreliable-machine recovery protocol."""

from dataclasses import replace

import pytest

from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.des import SimulationStalled, Watchdog
from repro.faults import FaultInjector, FaultPlan, load_fault_plan
from repro.metrics.report import fault_section
from repro.pcxx import Collection, make_distribution
from repro.sim.simulator import simulate


def simple_program(n, work_us=1000.0, reads_per_iter=1, iters=2):
    def factory(rt):
        coll = Collection(
            "c", make_distribution(n, n, "block"), element_nbytes=64
        )
        for i in range(n):
            coll.poke(i, float(i))

        def body(ctx):
            for _ in range(iters):
                yield from ctx.compute_us(work_us)
                for r in range(reads_per_iter):
                    if n > 1:
                        yield from ctx.get(
                            coll, (ctx.tid + r + 1) % n, nbytes=8
                        )
                yield from ctx.barrier()

        return body

    return factory


def translated(n, **kw):
    return translate(measure(simple_program(n, **kw), n, name="simple"))


def faulty(params, **plan_fields):
    return replace(params, faults=FaultPlan(**plan_fields))


# -- plan ------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError, match="msg_loss_rate"):
        FaultPlan(msg_loss_rate=1.5)
    with pytest.raises(ValueError, match="straggler_factor"):
        FaultPlan(straggler_factor=0.5)
    with pytest.raises(ValueError, match="retry_backoff"):
        FaultPlan(retry_backoff=0.9)
    with pytest.raises(ValueError, match="max_retries"):
        FaultPlan(max_retries=-1)
    with pytest.raises(ValueError, match="loss_kinds"):
        FaultPlan(loss_kinds=("request", "bogus"))


def test_plan_null_detection():
    assert FaultPlan().is_null()
    assert not FaultPlan(msg_loss_rate=0.1).is_null()
    # An armed timeout is non-null: spurious timeouts can retransmit.
    assert not FaultPlan(request_timeout=100.0).is_null()
    # Seed alone injects nothing.
    assert FaultPlan(seed=99).is_null()


def test_plan_dict_roundtrip():
    plan = FaultPlan(seed=3, msg_loss_rate=0.1, loss_kinds=("reply",))
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    with pytest.raises(ValueError, match="unknown"):
        FaultPlan.from_dict({"msg_loss_rte": 0.1})


def test_load_fault_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"seed": 5, "msg_loss_rate": 0.2}')
    plan = load_fault_plan(path)
    assert plan.seed == 5 and plan.msg_loss_rate == 0.2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="bad.json"):
        load_fault_plan(bad)


def test_injector_refuses_null_plan():
    with pytest.raises(ValueError, match="null fault plan"):
        FaultInjector(FaultPlan())


# -- null-plan byte identity ------------------------------------------------


def test_null_plan_is_byte_identical():
    """Absent plan, None plan and all-zero plan all match exactly."""
    tp = translated(4)
    params = presets.distributed_memory()
    base = simulate(tp, params)
    for variant in (replace(params, faults=None), faulty(params)):
        res = simulate(tp, variant)
        assert res.execution_time == base.execution_time
        assert res.faults is None
        assert res.network.dropped == 0 and res.network.duplicated == 0
        for got, want in zip(res.processors, base.processors):
            assert got == want


def test_timeout_armed_but_no_faults_changes_nothing():
    """Regression: Timeout events are born TRIGGERED (= scheduled);
    the retry loop must test ``processed``, or every wait times out."""
    tp = translated(4)
    params = presets.distributed_memory()
    base = simulate(tp, params)
    res = simulate(
        tp, faulty(params, request_timeout=1e6, max_retries=3)
    )
    assert res.execution_time == base.execution_time
    totals = res.fault_totals()
    assert totals["timeouts"] == 0
    assert totals["retries"] == 0
    assert totals["retry_giveups"] == 0


# -- determinism ------------------------------------------------------------


PLAN_FIELDS = dict(
    seed=11,
    msg_loss_rate=0.1,
    msg_dup_rate=0.05,
    msg_jitter=30.0,
    straggler_rate=0.05,
    barrier_delay_rate=0.2,
    barrier_delay=50.0,
    request_timeout=20_000.0,
    max_retries=8,
)


def test_fault_runs_are_deterministic_with_nonzero_counters():
    tp = translated(4, iters=3)
    params = presets.distributed_memory()
    a = simulate(tp, faulty(params, **PLAN_FIELDS))
    b = simulate(tp, faulty(params, **PLAN_FIELDS))
    assert a.execution_time == b.execution_time
    assert a.fault_totals() == b.fault_totals()
    assert a.faults.messages_dropped > 0
    assert a.network.dropped > 0
    totals = a.fault_totals()
    assert totals["timeouts"] > 0
    assert totals["retries"] > 0


def test_different_seeds_differ():
    tp = translated(4, iters=3)
    params = presets.distributed_memory()
    a = simulate(tp, faulty(params, seed=1, **{
        k: v for k, v in PLAN_FIELDS.items() if k != "seed"
    }))
    b = simulate(tp, faulty(params, seed=2, **{
        k: v for k, v in PLAN_FIELDS.items() if k != "seed"
    }))
    assert a.execution_time != b.execution_time


# -- individual fault categories -------------------------------------------


def test_loss_with_retry_recovers_and_slows():
    tp = translated(2, iters=1)
    params = presets.distributed_memory()
    base = simulate(tp, params).execution_time
    res = simulate(
        tp,
        faulty(
            params,
            seed=3,
            msg_loss_rate=0.5,
            loss_kinds=("request",),
            request_timeout=2000.0,
            max_retries=10,
        ),
    )
    totals = res.fault_totals()
    if totals["messages_dropped"]:
        assert totals["retries"] >= totals["messages_dropped"]
        assert res.execution_time > base
    assert totals["retry_giveups"] == 0


def test_duplicates_are_tolerated_and_counted():
    tp = translated(4, iters=2)
    params = presets.distributed_memory()
    res = simulate(tp, faulty(params, seed=5, msg_dup_rate=1.0))
    assert res.network.duplicated > 0
    # Every duplicated reply/ack lands on a completed access.
    assert res.fault_totals()["late_replies"] > 0


def test_jitter_only_changes_time_without_dropping():
    tp = translated(4)
    params = presets.distributed_memory()
    base = simulate(tp, params).execution_time
    res = simulate(tp, faulty(params, seed=7, msg_jitter=200.0))
    assert res.network.dropped == 0
    assert res.network.total_jitter > 0
    assert res.execution_time != base


def test_stragglers_add_compute_time():
    tp = translated(2, reads_per_iter=0, iters=2)
    params = presets.ideal()
    base = simulate(tp, params)
    res = simulate(
        tp, faulty(params, straggler_rate=1.0, straggler_factor=2.0)
    )
    totals = res.fault_totals()
    assert totals["stragglers"] > 0
    # Every compute action straggled at factor 2: busy compute doubles.
    assert res.total_compute_time() == pytest.approx(
        2 * base.total_compute_time()
    )


def test_barrier_delays_counted_as_idle():
    tp = translated(4, reads_per_iter=0, iters=2)
    params = presets.distributed_memory()
    base = simulate(tp, params)
    res = simulate(
        tp, faulty(params, barrier_delay_rate=1.0, barrier_delay=500.0)
    )
    totals = res.fault_totals()
    assert totals["barrier_delays"] > 0
    assert res.execution_time > base.execution_time
    # The delay is idle time (barrier_wait), never busy overhead.
    overhead = sum(p.categories["barrier_overhead"] for p in res.processors)
    base_overhead = sum(
        p.categories["barrier_overhead"] for p in base.processors
    )
    assert overhead == pytest.approx(base_overhead)


# -- stall diagnosis ---------------------------------------------------------


def test_total_reply_loss_raises_stalled_naming_processors():
    """The acceptance case: a plan dropping 100% of replies must not
    hang — the run degrades to a SimulationStalled diagnosis."""
    tp = translated(4, iters=2)
    params = presets.distributed_memory()
    plan = FaultPlan(
        seed=1,
        msg_loss_rate=1.0,
        loss_kinds=("reply",),
        request_timeout=1000.0,
        max_retries=2,
    )
    with pytest.raises(SimulationStalled) as exc_info:
        simulate(tp, replace(params, faults=plan))
    exc = exc_info.value
    assert exc.blocked, "must name at least one blocked processor"
    pid, reason = exc.blocked[0]
    assert "gave up" in reason
    assert "stalled" in str(exc)


def test_wall_clock_budget_is_validated():
    with pytest.raises(ValueError, match="wall_clock_budget"):
        Watchdog(wall_clock_budget=0.0)
    with pytest.raises(ValueError, match="watchdog windows"):
        Watchdog(stall_event_window=0)


def test_watchdog_stall_and_budget_detection():
    wd = Watchdog(stall_event_window=100, check_interval=10)
    assert wd.check(0, (0, 0)) is None
    assert wd.check(50, (0, 0)) is None  # window not yet exceeded
    reason = wd.check(150, (0, 0))
    assert reason is not None and "no forward progress" in reason
    assert wd.check(200, (0, 1)) is None  # progress resets the window

    wd2 = Watchdog(wall_clock_budget=1e-9)
    reason = wd2.check(1, (0, 0))
    assert reason is not None and "wall-clock budget" in reason


# -- surfacing ---------------------------------------------------------------


def test_fault_section_renders_counters():
    tp = translated(4, iters=3)
    params = presets.distributed_memory()
    res = simulate(tp, faulty(params, **PLAN_FIELDS))
    text = fault_section(res)
    assert "fault model:" in text
    assert "timeouts" in text and "retries" in text
    assert "dropped" in text


def test_fault_section_empty_without_plan():
    tp = translated(2)
    res = simulate(tp, presets.distributed_memory())
    assert fault_section(res) == ""


def test_parameters_with_faults_group():
    params = presets.distributed_memory().with_(
        faults={"msg_loss_rate": 0.1, "seed": 4}
    )
    assert params.faults == FaultPlan(seed=4, msg_loss_rate=0.1)
    # Merging into an existing plan preserves other fields.
    params2 = params.with_(faults={"msg_jitter": 5.0})
    assert params2.faults.msg_loss_rate == 0.1
    assert params2.faults.msg_jitter == 5.0
    assert "faults" in params.describe()


def test_timeline_records_fault_instants():
    tp = translated(4, iters=3)
    params = presets.distributed_memory()
    res = simulate(tp, faulty(params, **PLAN_FIELDS), observe=True)
    names = {i.name for i in res.timeline.instants}
    assert any(n.startswith("fault.") for n in names)
