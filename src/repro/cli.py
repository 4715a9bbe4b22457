"""The ``extrap`` command-line interface.

Subcommands::

    extrap list                      # benchmarks, presets, experiments
    extrap trace  <bench> -n 8 -o t.jsonl [--size-mode actual]
    extrap predict <trace> --preset cm5 [--set processor.mips_ratio=0.5]
    extrap predict <trace> --sample [--max-phases 8]  # SimPoint-style estimate
    extrap predict <trace> --timeline run.json   # record the simulation
    extrap timeline run.json --ascii             # render / convert it
    extrap timeline run.json --diagnose [--json] # anomaly report
    extrap predict <trace> --faults plan.json    # unreliable machine
    extrap validate <trace> [--no-global-barriers]  # structural checks
    extrap validate <trace> --sample-report  # sampling plan, no simulation
    extrap validate <trace> --diagnose --faults plan.json  # detector check
    extrap report  <trace> --preset cm5      # full debugging report
    extrap study  <bench> --preset distributed_memory -p 1,2,4,8,16,32
    extrap machine <bench> -n 8              # reference CM-5 direct run
    extrap experiment fig4 [--paper] [--jobs 4]
    extrap sweep run spec.json --trace t.jsonl --jobs 4   # design-space sweep
    extrap sweep stats|prune [--cache-dir D] # sweep result cache upkeep
    extrap serve --port 8787 --trace-root traces/  # HTTP prediction service
    extrap bench [-o BENCH_engine.json]      # engine perf trajectory

Global flags: ``-v``/``-vv`` or ``--log-level LEVEL`` control status
chatter on stderr (primary artifacts always go to stdout).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.bench.suite import BENCHMARKS, get_benchmark
from repro.core import presets
from repro.core.parameters import SimulationParameters
from repro.core.pipeline import measure
from repro.core.predict import PredictMode, predict, predict_report
from repro.des import SimulationStalled
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.faults import load_fault_plan
from repro.sweep.cache import DEFAULT_CACHE_DIR
from repro.trace import read_trace, write_trace
from repro.util.atomic import atomic_write_text
from repro.util.log import get_logger, level_from_verbosity, setup_logging

log = get_logger("cli")

#: exit code for input errors (argparse uses 2 for usage errors; we
#: match it — the shell convention for "bad invocation")
EXIT_INPUT_ERROR = 2

#: numeric flag bounds, checked in :func:`main` before dispatch:
#: ``dest -> (bound, strict)``; a strict bound must be exceeded
FLAG_BOUNDS = {
    "queue_depth": (1, False),
    "workers": (1, False),
    "jobs": (1, False),
    "retries": (0, False),
    "wall_budget": (0, True),
    "max_wall_budget": (0, True),
    "rate_limit": (0, True),
    "rate_burst": (1, False),
    "job_budget": (0, True),
    "drain_timeout": (0, True),
}


def _input_error(msg: str) -> int:
    """One-line error on stderr, nonzero exit — never a traceback."""
    print(f"extrap: error: {msg}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _check_bounds(args) -> None:
    """ValueError naming the first flag in :data:`FLAG_BOUNDS` out of range."""
    for dest, (bound, strict) in FLAG_BOUNDS.items():
        value = getattr(args, dest, None)
        if value is not None and (value <= bound if strict else value < bound):
            flag = "--" + dest.replace("_", "-")
            op = ">" if strict else ">="
            raise ValueError(f"{flag} must be {op} {bound}, got {value}")


def _require_file(path: str, what: str = "input file") -> str:
    """``path``, or ValueError if it is not an existing file."""
    p = Path(path)
    if not p.exists():
        raise ValueError(f"{what} not found: {path}")
    if p.is_dir():
        raise ValueError(f"{what} is a directory: {path}")
    return path


def _load_trace(path: str):
    """The trace at ``path``, or ValueError with a one-line diagnosis.

    Folds the existence check and the malformed-file diagnosis into one
    place so every trace-consuming subcommand exits 2 with a one-line
    ``file:line: what`` message instead of a traceback.
    """
    _require_file(path, "trace file")
    try:
        return read_trace(path)
    except OSError as exc:
        raise ValueError(f"cannot read trace {path}: {exc}") from exc


def _parse_counts(spec: str) -> List[int]:
    try:
        return [int(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise ValueError(
            f"bad processor-count list {spec!r}; expected e.g. 1,2,4"
        ) from None


def _parse_override_value(raw: str) -> Any:
    lowered = raw.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _apply_overrides(params: SimulationParameters, sets: List[str]) -> SimulationParameters:
    """Apply ``--set group.field=value`` items; ValueError on any bad one."""
    from repro.sweep.spec import apply_param_overrides

    overrides: Dict[str, Any] = {}
    for item in sets:
        key, eq, raw = item.partition("=")
        if not eq or "." not in key:
            raise ValueError(
                f"bad --set {item!r}; expected group.field=value "
                "(e.g. processor.mips_ratio=0.5)"
            )
        overrides[key] = _parse_override_value(raw)
    return apply_param_overrides(params, overrides)


def _resolve_params(args) -> SimulationParameters:
    """The ``--preset``, plus ``--set`` overrides, plus any ``--faults`` plan.

    Unknown presets, unknown/misspelled override fields (both with
    did-you-mean hints) and missing or malformed fault plans raise
    :class:`ValueError`.
    """
    params = _apply_overrides(presets.by_name(args.preset), args.set or [])
    path = getattr(args, "faults", None)
    if not path:
        return params
    plan = load_fault_plan(_require_file(path, "fault plan"))
    log.info("fault plan: %s", plan.describe())
    return params.with_faults(plan)


def _add_param_flags(parser: argparse.ArgumentParser, faults: bool = True) -> None:
    """The target-environment flags: ``--preset``, ``--set``, ``--faults``."""
    parser.add_argument("--preset", default="distributed_memory")
    parser.add_argument(
        "--set",
        action="append",
        metavar="group.field=value",
        help="override a parameter, e.g. processor.mips_ratio=0.5",
    )
    if faults:
        parser.add_argument(
            "--faults",
            default=None,
            metavar="PLAN.json",
            help="inject faults from a FaultPlan JSON file "
            "(see docs/ROBUSTNESS.md)",
        )


def _add_sampling_flags(parser: argparse.ArgumentParser) -> None:
    """The sampling knob set shared by ``predict`` and ``validate``."""
    parser.add_argument(
        "--max-phases",
        type=int,
        default=8,
        metavar="K",
        help="cluster count ceiling for --sample / --sample-report",
    )
    parser.add_argument(
        "--interval-events",
        type=int,
        default=0,
        metavar="N",
        help="events per interval for barrier-less traces (0 = auto)",
    )
    parser.add_argument(
        "--sample-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="k-means seed; sampled output is byte-identical per seed",
    )
    parser.add_argument(
        "--sample-mode",
        choices=("auto", "barrier", "events"),
        default="auto",
        help="interval-splitting mode (auto = barriers when present)",
    )


def _sampling_config(args):
    """The SamplingConfig the knob flags describe (ValueError if invalid)."""
    from repro.sampling import SamplingConfig

    return SamplingConfig(
        max_phases=args.max_phases,
        interval_events=args.interval_events,
        seed=args.sample_seed,
        mode=args.sample_mode,
    )


def _print_diagnosis(timeline, as_json: bool) -> None:
    """The ``--diagnose`` anomaly report, as text or (``--json``) JSON."""
    from repro.diagnose import diagnose

    report = diagnose(timeline)
    if as_json:
        sys.stdout.write(report.to_json())
    else:
        print(report.format())


def cmd_list(_args) -> int:
    print("benchmarks:")
    for name, info in BENCHMARKS.items():
        print(f"  {name:8s} {info.description}")
    print("presets:")
    for name in sorted(presets.PRESETS):
        print(f"  {name}")
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    return 0


def cmd_trace(args) -> int:
    info = get_benchmark(args.benchmark)
    maker = info.make_program()
    log.info("measuring %s with %d threads", args.benchmark, args.n)
    trace = measure(
        maker(args.n), args.n, name=args.benchmark, size_mode=args.size_mode
    )
    try:
        path = write_trace(trace, args.output)
    except (OSError, ValueError) as exc:
        return _input_error(f"cannot write trace to {args.output}: {exc}")
    print(f"wrote {len(trace)} events for {args.n} threads to {path}")
    if trace.race_findings:
        log.warning(
            "%d same-epoch read/write conflicts — extrapolation may not "
            "be valid for this program (see repro.pcxx.races)",
            len(trace.race_findings),
        )
    return 0


def cmd_predict(args) -> int:
    trace = _load_trace(args.trace)
    params = _resolve_params(args)
    config = _sampling_config(args) if args.sample else None
    what = "sampled extrapolation of" if args.sample else "extrapolating"
    log.info("%s %s to %s", what, args.trace, params.name or args.preset)
    mode = PredictMode(
        sample=config, timeline=args.timeline is not None, profile=args.profile
    )
    outcome = predict(trace, params, mode, wall_clock_budget=args.wall_budget)
    print(predict_report(params, outcome))
    if args.timeline is not None:
        from repro.obs.export import write_chrome_trace

        try:
            path = write_chrome_trace(outcome.result.timeline, args.timeline)
        except OSError as exc:
            return _input_error(
                f"cannot write timeline to {args.timeline}: {exc}"
            )
        print(f"wrote timeline to {path} (view at https://ui.perfetto.dev)")
    return 0


def cmd_timeline(args) -> int:
    from repro.obs.export import load_chrome_trace, write_counters_csv
    from repro.obs.gantt import ascii_gantt

    if args.json and not args.diagnose:
        return _input_error("--json requires --diagnose")
    try:
        timeline = load_chrome_trace(_require_file(args.timeline, "timeline file"))
    except OSError as exc:
        return _input_error(f"cannot read timeline {args.timeline}: {exc}")
    did_something = False
    if args.diagnose:
        _print_diagnosis(timeline, args.json)
        did_something = True
    if args.ascii:
        print(ascii_gantt(timeline, width=args.width))
        did_something = True
    if args.counter:
        from repro.obs.samplers import counter_points
        from repro.util.asciiplot import ascii_series_plot

        try:
            pts = counter_points(timeline, args.counter, max_points=256)
        except KeyError as exc:
            return _input_error(exc.args[0])
        print(
            ascii_series_plot(
                {args.counter: pts},
                title=f"{args.counter} over simulated time",
                xlabel="t (us)",
                ylabel=args.counter,
            )
        )
        did_something = True
    if args.csv:
        try:
            path = write_counters_csv(timeline, args.csv)
        except OSError as exc:
            return _input_error(f"cannot write CSV to {args.csv}: {exc}")
        print(f"wrote counter CSV to {path}")
        did_something = True
    if args.output:
        from repro.obs.export import write_chrome_trace

        try:
            path = write_chrome_trace(timeline, args.output)
        except OSError as exc:
            return _input_error(f"cannot write timeline to {args.output}: {exc}")
        print(f"wrote normalized timeline to {path}")
        did_something = True
    if not did_something:
        print(timeline.summary())
    return 0


def cmd_report(args) -> int:
    from repro.metrics.report import full_report

    trace = _load_trace(args.trace)
    params = _resolve_params(args)
    outcome = predict(trace, params, PredictMode(profile=args.profile))
    print(full_report(outcome))
    return 0


def cmd_validate(args) -> int:
    from repro.trace.validate import TraceValidationError, validate_trace

    if args.json and not args.diagnose:
        return _input_error("--json requires --diagnose")
    trace = _load_trace(args.trace)
    try:
        validate_trace(
            trace, require_global_barriers=not args.no_global_barriers
        )
    except TraceValidationError as exc:
        print(f"{args.trace}: INVALID: {exc}")
        return 1
    if not args.json:
        print(
            f"{args.trace}: ok ({len(trace)} events, "
            f"{trace.meta.n_threads} threads)"
        )
        print(f"{args.trace}: sha256 {trace.digest()}")
    if args.sample_report:
        from repro.sampling import sample_report

        print(sample_report(trace, _sampling_config(args)))
    if args.diagnose:
        params = _resolve_params(args)
        outcome = predict(trace, params, PredictMode(diagnose=True))
        _print_diagnosis(outcome.result.timeline, args.json)
    return 0


def cmd_bench(args) -> int:
    from repro.perf.bench import (
        format_results,
        load_baseline,
        run_benchmarks,
        write_baseline,
    )

    if args.only:
        from repro.perf.bench import WORKLOADS
        from repro.sweep.spec import suggest

        for name in args.only:
            if name not in WORKLOADS:
                return _input_error(
                    f"unknown bench workload {name!r}"
                    f"{suggest(name, sorted(WORKLOADS))}; "
                    f"available: {', '.join(sorted(WORKLOADS))}"
                )
    results = run_benchmarks(
        scale=args.scale, repeats=args.repeats, workloads=args.only
    )
    baseline = None
    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        # The default baseline is optional; an explicit one must exist
        # (and --update-baseline is about to create it either way).
        if args.baseline != "BENCH_engine.json" or args.update_baseline:
            log.warning("baseline %s not found", args.baseline)
    except ValueError as exc:
        log.warning("ignoring baseline %s: %s", args.baseline, exc)
    print(format_results(results, baseline))
    if args.output:
        print(f"wrote {write_baseline(results, args.output)}")
    if args.update_baseline:
        print(f"wrote {write_baseline(results, args.baseline, merge=True)}")
    return 0


def cmd_machine(args) -> int:
    from repro.machine import run_on_machine

    info = get_benchmark(args.benchmark)
    maker = info.make_program()
    result = run_on_machine(maker(args.n), args.n, name=args.benchmark)
    print(result.summary())
    for node in result.nodes:
        print(
            f"  node {node.pid}: compute {node.compute_time:.1f} us, "
            f"{node.remote_accesses} remote accesses, "
            f"{node.requests_served} served, "
            f"barrier {node.barrier_time:.1f} us"
        )
    return 0


def cmd_compare(args) -> int:
    from repro.sweep.executor import extrapolate_many
    from repro.util.tables import format_table

    trace = _load_trace(args.trace)
    records = extrapolate_many(
        [(trace, presets.by_name(name)) for name in args.presets], jobs=1
    )
    base_time = records[0]["predicted_time_us"]
    rows = [
        [name, r["predicted_time_us"], r["predicted_time_us"] / base_time,
         r["utilization"], r["comm_time_us"], r["barrier_time_us"]]
        for name, r in zip(args.presets, records)
    ]
    print(
        format_table(
            [
                "environment",
                "predicted us",
                "vs first",
                "util",
                "comm us",
                "barrier us",
            ],
            rows,
            title=f"{trace.meta.program or 'trace'} across environments "
            f"({trace.meta.n_threads} threads)",
        )
    )
    return 0


def cmd_calibrate(args) -> int:
    from repro.calibrate import calibrate

    params, report = calibrate()
    print("probe measurements on the reference machine:")
    print(f"  {report.summary()}")
    print()
    print(params.describe())
    return 0


def cmd_study(args) -> int:
    from repro.metrics import speedups
    from repro.sweep.executor import extrapolate_many
    from repro.util.tables import format_table

    info = get_benchmark(args.benchmark)
    params = _resolve_params(args)
    counts = _parse_counts(args.processors)
    if not counts:
        return _input_error(
            f"empty processor-count list {args.processors!r}; expected e.g. 1,2,4"
        )
    maker = info.make_program()
    counts = sorted(info.counts(counts))
    traces = [
        measure(maker(n), n, name=args.benchmark, size_mode=args.size_mode)
        for n in counts
    ]
    records = extrapolate_many([(t, params) for t in traces], jobs=1)
    curve = speedups({n: r["predicted_time_us"] for n, r in zip(counts, records)})
    rows = [
        [n, r["predicted_time_us"], curve[n], curve[n] / n, r["utilization"],
         r["barrier_count"], r["message_count"]]
        for n, r in zip(counts, records)
    ]
    headers = ["P", "time_us", "speedup", "efficiency", "util", "barriers", "msgs"]
    print(format_table(headers, rows, title=f"{args.benchmark} — {params.name}"))
    return 0


def cmd_experiment(args) -> int:
    result = run_experiment(args.name, quick=not args.paper, jobs=args.jobs)
    print(result.format())
    return 0


def cmd_reproduce(args) -> int:
    from repro.experiments.reproduce import reproduce

    try:
        index = reproduce(
            args.out,
            quick=not args.paper,
            experiments=args.only or None,
            jobs=args.jobs,
        )
    except OSError as exc:
        return _input_error(f"cannot write reports to {args.out}: {exc}")
    print(f"wrote {index}")
    print(index.read_text())
    return 0


def cmd_sweep(args) -> int:
    from repro.sweep import ResultCache, SweepSpec, run_sweep
    from repro.sweep.analyze import format_run

    if args.sweep_command == "stats":
        s = ResultCache(args.cache_dir).stats()
        print(
            f"cache {s['root']}: {s['entries']} entries, {s['bytes']} bytes"
        )
        if s["entries"]:
            print(
                f"  full simulations: {s['full_entries']}  "
                f"sampled estimates: {s['sampled_entries']}"
            )
        if s["sampled_entries"]:
            total = s["sampled_events_total"]
            sim = s["sampled_events_simulated"]
            saved = (total - sim) / total if total else 0.0
            print(
                f"  sampled entries simulated {sim} of {total} trace "
                f"events ({saved:.1%} estimated compute saved)"
            )
        return 0
    if args.sweep_command == "prune":
        removed = ResultCache(args.cache_dir).prune()
        print(f"pruned {removed} cache entries from {args.cache_dir}")
        return 0

    spec = SweepSpec.from_file(_require_file(args.spec, "sweep spec"))
    if not args.trace and spec.benchmark is None:
        return _input_error(
            "sweep needs a trace (--trace FILE) or a 'benchmark' field "
            "in the spec"
        )
    trace = _load_trace(args.trace) if args.trace else None
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    log.info(
        "sweep %s: %d points, jobs=%d, cache=%s",
        spec.name, len(spec), args.jobs,
        "off" if cache is None else args.cache_dir,
    )
    try:
        run = run_sweep(
            spec,
            trace=trace,
            jobs=args.jobs,
            cache=cache,
            wall_budget=args.wall_budget,
            retries=args.retries,
        )
    except KeyboardInterrupt:
        # Workers are already cancelled and reaped by the executor's
        # abort path; report the conventional SIGINT exit.
        print("extrap: sweep interrupted", file=sys.stderr)
        return 130
    print(format_run(run))
    print(run.counters.format())
    if args.output:
        try:
            atomic_write_text(args.output, run.to_json())
        except OSError as exc:
            return _input_error(f"cannot write results to {args.output}: {exc}")
        print(f"wrote {args.output}")
    return 1 if run.counters.failed else 0


def cmd_serve(args) -> int:
    from repro.serve import run_server
    from repro.sweep import ResultCache

    if args.rate_burst is not None and args.rate_limit is None:
        return _input_error("--rate-burst requires --rate-limit")
    root = Path(args.trace_root)
    if not root.is_dir():
        return _input_error(f"trace root is not a directory: {args.trace_root}")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return run_server(
        host=args.host,
        port=args.port,
        trace_root=root,
        cache=cache,
        queue_depth=args.queue_depth,
        workers=args.workers,
        sweep_jobs=args.jobs,
        max_wall_budget=args.max_wall_budget,
        state_dir=args.state_dir,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        job_budget=args.job_budget,
        drain_timeout=args.drain_timeout,
    )


def _add_trace_args(t: argparse.ArgumentParser) -> None:
    t.add_argument("benchmark", choices=sorted(BENCHMARKS))
    t.add_argument("-n", type=int, default=8, help="number of threads")
    t.add_argument("-o", "--output", default="trace.jsonl", help=".jsonl or .bin")
    t.add_argument(
        "--size-mode", choices=("compiler", "actual"), default="compiler"
    )


def _add_predict_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("trace", help="trace file from 'extrap trace'")
    _add_param_flags(p)
    p.add_argument(
        "--profile",
        action="store_true",
        help="collect and print engine counters / phase timers",
    )
    p.add_argument(
        "--timeline",
        default=None,
        metavar="PATH",
        help="record the simulated execution and write a Perfetto-loadable "
        "Chrome trace-event JSON here (explore with 'extrap timeline')",
    )
    p.add_argument(
        "--wall-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort with a stall diagnosis if the simulation runs longer "
        "than this many real seconds",
    )
    p.add_argument(
        "--sample",
        action="store_true",
        help="SimPoint-style sampled estimate: cluster the trace into "
        "phases, simulate one representative interval per phase, and "
        "reconstitute whole-run metrics with error bars "
        "(see docs/SAMPLING.md)",
    )
    _add_sampling_flags(p)


def _add_timeline_args(tl: argparse.ArgumentParser) -> None:
    tl.add_argument(
        "timeline", help="Chrome trace-event JSON from 'extrap predict --timeline'"
    )
    tl.add_argument(
        "--ascii",
        action="store_true",
        help="render a per-processor Gantt chart in the terminal",
    )
    tl.add_argument("--width", type=int, default=72, help="Gantt width in cells")
    tl.add_argument(
        "--counter",
        default=None,
        metavar="NAME",
        help="ASCII-plot one counter series (e.g. net.in_flight)",
    )
    tl.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="write all counter series to a CSV file",
    )
    tl.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="re-export normalized Chrome trace-event JSON here",
    )
    tl.add_argument(
        "--diagnose",
        action="store_true",
        help="detect performance anomalies (stragglers, barrier "
        "imbalance, comm hotspots, idle tails — see docs/DIAGNOSE.md)",
    )
    tl.add_argument(
        "--json",
        action="store_true",
        help="with --diagnose: emit the report as deterministic JSON",
    )


def _add_report_args(r: argparse.ArgumentParser) -> None:
    r.add_argument("trace", help="trace file from 'extrap trace'")
    _add_param_flags(r)
    r.add_argument(
        "--profile",
        action="store_true",
        help="include the engine profile section in the report",
    )


def _add_validate_args(va: argparse.ArgumentParser) -> None:
    va.add_argument("trace", help="trace file to validate (.jsonl or .bin)")
    va.add_argument(
        "--no-global-barriers",
        action="store_true",
        help="allow barriers that not every thread enters "
        "(pC++ barriers are global; disable for partial/hand-built traces)",
    )
    va.add_argument(
        "--diagnose",
        action="store_true",
        help="also extrapolate the trace and report performance "
        "anomalies (see docs/DIAGNOSE.md)",
    )
    _add_param_flags(va)
    va.add_argument(
        "--json",
        action="store_true",
        help="with --diagnose: emit only the report as deterministic JSON",
    )
    va.add_argument(
        "--sample-report",
        action="store_true",
        help="print the sampling plan (intervals, chosen k, phase weights, "
        "representative interval ids) without simulating anything",
    )
    _add_sampling_flags(va)


def _add_bench_args(b: argparse.ArgumentParser) -> None:
    b.add_argument("-o", "--output", default=None, help="write baseline JSON here")
    b.add_argument("--scale", type=float, default=1.0)
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument(
        "--baseline",
        default="BENCH_engine.json",
        help="baseline to compare against (if present)",
    )
    b.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file in place with this run's results "
        "(rows of workloads not run are kept)",
    )
    b.add_argument(
        "--only",
        action="append",
        metavar="WORKLOAD",
        help="restrict to specific workloads (repeatable)",
    )


def _add_machine_args(m: argparse.ArgumentParser) -> None:
    m.add_argument("benchmark", choices=sorted(BENCHMARKS))
    m.add_argument("-n", type=int, default=8, help="number of nodes")


def _add_compare_args(cp: argparse.ArgumentParser) -> None:
    cp.add_argument("trace")
    cp.add_argument(
        "presets",
        nargs="+",
        choices=sorted(presets.PRESETS),
        help="presets to compare (first is the baseline)",
    )


def _add_study_args(s: argparse.ArgumentParser) -> None:
    s.add_argument("benchmark", choices=sorted(BENCHMARKS))
    _add_param_flags(s, faults=False)
    s.add_argument("-p", "--processors", default="1,2,4,8,16,32")
    s.add_argument(
        "--size-mode", choices=("compiler", "actual"), default="compiler"
    )


def _add_experiment_args(e: argparse.ArgumentParser) -> None:
    e.add_argument("name", choices=sorted(EXPERIMENTS))
    e.add_argument(
        "--paper", action="store_true", help="paper-scale problem sizes (slower)"
    )
    e.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for experiments with internal grids "
        "(the figures, validation-suite and grid ablations); 1 = serial",
    )


def _add_reproduce_args(rp: argparse.ArgumentParser) -> None:
    rp.add_argument("--out", default="results", help="output directory")
    rp.add_argument("--paper", action="store_true")
    rp.add_argument(
        "--only",
        action="append",
        metavar="EXPERIMENT",
        help="restrict to specific experiments (repeatable)",
    )
    rp.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="run experiments across this many worker processes "
        "(1 = serial; reports are identical either way)",
    )


def _add_sweep_args(sw: argparse.ArgumentParser) -> None:
    swsub = sw.add_subparsers(dest="sweep_command", required=True)
    swr = swsub.add_parser(
        "run", help="execute a sweep spec and aggregate the results"
    )
    swr.add_argument("spec", help="SweepSpec JSON file (see docs/SWEEP.md)")
    swr.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="extrapolate this measured trace at every point (otherwise "
        "the spec's 'benchmark' is measured, once per thread count)",
    )
    swr.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial; output is byte-identical)",
    )
    swr.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="content-addressed result cache directory",
    )
    swr.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    swr.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-runs allowed per point after a watchdog stall",
    )
    swr.add_argument(
        "--wall-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock watchdog budget",
    )
    swr.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="write the deterministic result JSON artifact here",
    )
    for sub_name, sub_help in (
        ("stats", "show result-cache entry count and size"),
        ("prune", "delete every result-cache entry"),
    ):
        p_ = swsub.add_parser(sub_name, help=sub_help)
        p_.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)


def _add_serve_args(sv: argparse.ArgumentParser) -> None:
    sv.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default loopback; bind 0.0.0.0 deliberately)",
    )
    sv.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (0 = ephemeral; the bound URL is printed on stdout)",
    )
    sv.add_argument(
        "--trace-root",
        default=".",
        metavar="DIR",
        help="directory 'trace_path' request fields resolve under "
        "(requests cannot escape it)",
    )
    sv.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="content-addressed result cache shared with 'extrap sweep'",
    )
    sv.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without memoization (every predict simulates)",
    )
    sv.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        help="max queued sweep jobs before submissions are shed with 503",
    )
    sv.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="crash-safe job journal directory: accepted jobs survive "
        "kill -9 and are recovered on the next start (off by default)",
    )
    sv.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="REQ_PER_S",
        help="per-client token-bucket rate limit; over-budget requests "
        "get 429 with a Retry-After header (off by default)",
    )
    sv.add_argument(
        "--rate-burst",
        type=int,
        default=None,
        metavar="N",
        help="token-bucket burst size (default: ceil of --rate-limit)",
    )
    sv.add_argument(
        "--job-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall budget: a job running longer is failed with "
        "a stall diagnosis instead of wedging a worker forever",
    )
    sv.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="bound on the SIGTERM drain; past it, unfinished jobs are "
        "journaled as interrupted and the process still exits 0 "
        "(default 30)",
    )
    sv.add_argument(
        "--workers",
        type=int,
        default=1,
        help="job-queue worker threads (each job may itself use --jobs "
        "processes)",
    )
    sv.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="max worker processes per sweep job (requests are clamped "
        "to this)",
    )
    sv.add_argument(
        "--max-wall-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="cap every simulation's wall-clock watchdog budget "
        "(requests cannot exceed it)",
    )


class _Subcommand(NamedTuple):
    """One ``extrap`` subcommand: its help line, argument adder and handler."""

    help: str
    #: adds the subcommand's arguments to its parser (None: it has none)
    add_arguments: Optional[Callable[[argparse.ArgumentParser], None]]
    run: Callable[[argparse.Namespace], int]


#: Every subcommand, in ``extrap -h`` order.
SUBCOMMANDS: Dict[str, _Subcommand] = {
    "list": _Subcommand(
        "list benchmarks, presets and experiments", None, cmd_list
    ),
    "trace": _Subcommand(
        "measure a benchmark on 1 virtual processor", _add_trace_args, cmd_trace
    ),
    "predict": _Subcommand(
        "extrapolate a trace to a target environment",
        _add_predict_args,
        cmd_predict,
    ),
    "timeline": _Subcommand(
        "render or convert a timeline recorded by 'predict --timeline'",
        _add_timeline_args,
        cmd_timeline,
    ),
    "report": _Subcommand(
        "full debugging report for a trace", _add_report_args, cmd_report
    ),
    "validate": _Subcommand(
        "check a trace file's structural invariants",
        _add_validate_args,
        cmd_validate,
    ),
    "bench": _Subcommand(
        "run the engine benchmark harness (BENCH_engine.json)",
        _add_bench_args,
        cmd_bench,
    ),
    "machine": _Subcommand(
        "run a benchmark on the reference CM-5", _add_machine_args, cmd_machine
    ),
    "calibrate": _Subcommand(
        "fit extrapolation parameters from reference-machine probes",
        None,
        cmd_calibrate,
    ),
    "compare": _Subcommand(
        "extrapolate one trace to several environments",
        _add_compare_args,
        cmd_compare,
    ),
    "study": _Subcommand(
        "processor-scaling study for a benchmark", _add_study_args, cmd_study
    ),
    "experiment": _Subcommand(
        "regenerate a paper figure/table", _add_experiment_args, cmd_experiment
    ),
    "reproduce": _Subcommand(
        "run every experiment, write reports to a directory",
        _add_reproduce_args,
        cmd_reproduce,
    ),
    "sweep": _Subcommand(
        "design-space sweeps: run a spec, inspect/prune the result cache",
        _add_sweep_args,
        cmd_sweep,
    ),
    "serve": _Subcommand(
        "HTTP prediction service (memoized predict, async sweeps)",
        _add_serve_args,
        cmd_serve,
    ),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``extrap`` argument parser.

    With ``command`` (a key of :data:`SUBCOMMANDS`), only that
    subcommand is registered, which is several times cheaper than
    building all of them.  The root's usage still names every
    subcommand, so its usage and error lines are the ones the full
    parser prints; a subparser's own usage never depends on its
    siblings.  ``extrap -h`` and an unknown or missing command need the
    full parser.
    """
    ap = argparse.ArgumentParser(
        prog="extrap",
        description="Performance extrapolation of parallel programs (ICPP'95 reproduction)",
    )
    ap.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more status chatter on stderr (-v info, -vv debug)",
    )
    ap.add_argument(
        "--log-level",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="explicit log level (overrides -v)",
    )
    # With one subcommand registered, the root still shows the usage the
    # full parser derives from every name.  The errors that would print
    # this metavar in place of "command" (a missing or unknown command)
    # only arise with the full parser.
    metavar = None if command is None else "{%s}" % ",".join(SUBCOMMANDS)
    sub = ap.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, spec in SUBCOMMANDS.items():
        if command is None or name == command:
            parser = sub.add_parser(name, help=spec.help)
            if spec.add_arguments is not None:
                spec.add_arguments(parser)
    return ap


def command_of(argv: Sequence[str]) -> Optional[str]:
    """The subcommand ``argv`` plainly invokes, else None.

    The command is the first token that is not ``-v``, ``-vv``,
    ``--verbose``, ``--log-level X`` or ``--log-level=X``; it counts
    only if it names a subcommand (so ``-h`` before it, or anything
    else unexpected, gives None and the full parser).
    """
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in ("-v", "-vv", "--verbose") or token.startswith("--log-level="):
            i += 1
        elif token == "--log-level":
            i += 2
        else:
            return token if token in SUBCOMMANDS else None
    return None


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(command_of(argv)).parse_args(argv)
    setup_logging(args.log_level or level_from_verbosity(args.verbose))
    try:
        _check_bounds(args)
        return SUBCOMMANDS[args.command].run(args)
    except (ValueError, SimulationStalled) as exc:
        # Any input a library call rejects is a one-line diagnosis; -vv
        # keeps the traceback for telling a library bug from bad input.
        log.debug("%s failed", args.command, exc_info=True)
        return _input_error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
