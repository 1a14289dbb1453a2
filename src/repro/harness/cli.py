"""``chopin`` — command-line front end to the suite.

Mirrors the DaCapo harness's ergonomics where they matter to the paper:
``chopin stats <benchmark>`` is the ``-p`` nominal-statistics report;
``chopin lbo``, ``chopin latency``, and ``chopin minheap`` run the
Section 6 analyses as campaigns over one execution stack; ``chopin
pca`` prints the Figure 4 diversity analysis.  ``chopin serve`` runs the
long-running sweep service, and the four client verbs (``submit`` /
``status`` / ``result`` / ``cancel``) script it over HTTP — ``chopin
result`` prints byte-identical output to the matching one-shot command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.characterize import characterize
from repro.core.compare import compare_collectors
from repro.core.insights import format_insights
from repro.core.nominal import format_report
from repro.core.pca import determinant_metrics, suite_pca
from repro.harness.config import HarnessConfig, engine_from_config, harness_config
from repro.harness.engine import ExecutionEngine
from repro.harness.experiments import (
    chaos_drill,
    lbo_experiment,
    run_campaign,
    supervised_sweep,
    trace_sweep,
)
from repro.harness.perfdiff import (
    DEFAULT_THRESHOLD,
    diff_artifacts,
    load_artifact,
    resolve_artifacts,
)
from repro.harness.plans import (
    DEFAULT_MULTIPLES,
    PLAN_KINDS,
    plan_adaptive,
    plan_lbo,
    run_adaptive,
)
from repro.planner import GRADES, render_ranking
from repro.resilience import (
    CostModel,
    Supervisor,
    compact_jobs_journal,
    scan_cache,
    scan_jobs_journal,
    verify_cells,
)
from repro.observability import (
    MetricsRegistry,
    Recorder,
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.harness.report import (
    format_latency_comparison,
    format_lbo_curves,
    format_pca_projection,
    format_table,
)
from repro.harness.runner import RunConfig
from repro.jvm.collectors import COLLECTOR_NAMES, UnknownCollectorError, resolve_collector
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceError,
    service_chaos_drill,
    service_from_config,
)
from repro.workloads import nominal_data, registry


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer, rejected with a
    one-line message (never a traceback) on bad input."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _rate(text: str) -> float:
    """argparse type: a probability in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a rate in [0, 1], got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a rate in [0, 1], got {text!r}")
    return value


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    # Engine flags default to None ("not specified"): resolution follows
    # repro.harness.config precedence — flag > CHOPIN_* env > default —
    # so `chopin lbo --jobs 8` beats CHOPIN_JOBS=4 beats the default 1.
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for sweep cells (default: 1 = in-process "
        "serial; env: CHOPIN_JOBS)",
    )
    batch = parser.add_mutually_exclusive_group()
    batch.add_argument(
        "--batch",
        dest="batch",
        action="store_true",
        default=None,
        help="vectorize aggregate-fidelity sweep rows through the batch "
        "simulation kernel (same cells, same cache keys, scalars within "
        "1e-9; env: CHOPIN_BATCH)",
    )
    batch.add_argument(
        "--no-batch",
        dest="batch",
        action="store_false",
        help="force the scalar per-cell path even when CHOPIN_BATCH is set",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (reruns skip completed cells)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the result cache"
    )
    parser.add_argument(
        "--cell-progress", action="store_true", help="log per-cell progress to stderr"
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=None,
        help="retry budget per cell for transient failures (default: 0; "
        "env: CHOPIN_RETRIES)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=_positive_float,
        default=None,
        help="per-cell wall-clock timeout in seconds (hung cells are retried)",
    )
    parser.add_argument(
        "--chaos-rate",
        type=_rate,
        default=None,
        help="inject seeded faults at this overall rate (testing the harness)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        help="seed for deterministic fault injection (default: 0; "
        "env: CHOPIN_CHAOS_SEED)",
    )
    parser.add_argument(
        "--budget",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline budget: cells the cost model says cannot "
        "finish in time become typed holes a re-run with the same "
        "--cache-dir fills",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=_positive_int,
        default=None,
        metavar="K",
        help="open a workload×collector circuit breaker after K consecutive "
        "cell give-ups; the family's remaining cells fast-fail",
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--invocations", type=_positive_int, default=3, help="invocations per data point"
    )
    parser.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="iteration duration scale (use <1 for quick looks)",
    )
    parser.add_argument(
        "--fidelity",
        choices=("auto", "aggregate", "full"),
        default=os.environ.get("CHOPIN_FIDELITY", "auto"),
        help="telemetry tier: aggregate (headline scalars only, fastest), "
        "full (per-event detail: timelines, GC logs, traces), or auto — "
        "each analysis picks what it needs (default; env: CHOPIN_FIDELITY)",
    )
    _add_engine_options(parser)


def _config(args: argparse.Namespace) -> RunConfig:
    # The chaos subparser has no --fidelity; env overrides still apply.
    fidelity = getattr(args, "fidelity", None) or os.environ.get("CHOPIN_FIDELITY", "auto")
    if fidelity not in ("auto", "aggregate", "full"):
        raise SystemExit(
            f"chopin: invalid fidelity {fidelity!r} (from --fidelity or "
            f"CHOPIN_FIDELITY); choose auto, aggregate, or full"
        )
    return RunConfig(
        invocations=args.invocations,
        duration_scale=args.scale,
        fidelity=None if fidelity == "auto" else fidelity,
    )


def _supervisor(config: HarnessConfig, args: argparse.Namespace) -> Optional[Supervisor]:
    if config.budget_s is None and config.breaker_threshold is None:
        return None
    if config.effective_cache_dir:
        hint = (
            f"re-run the same command with --cache-dir "
            f"{config.effective_cache_dir} to fill them"
        )
    else:
        hint = "re-run with --cache-dir to make the holes fillable"
    return Supervisor(
        budget_s=config.budget_s,
        breaker_threshold=config.breaker_threshold,
        resume_hint=hint,
    )


def _engine(args: argparse.Namespace) -> ExecutionEngine:
    # Flags feed repro.harness.config as overrides: any flag the user
    # did not pass (None) falls through to CHOPIN_* env, then defaults.
    config = harness_config(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=True if args.no_cache else None,
        progress=True if args.cell_progress else None,
        retries=args.retries,
        cell_timeout_s=args.cell_timeout,
        chaos_rate=args.chaos_rate,
        chaos_seed=args.chaos_seed,
        budget_s=getattr(args, "budget", None),
        breaker_threshold=getattr(args, "breaker_threshold", None),
        batch=getattr(args, "batch", None),
    )
    return engine_from_config(config, supervisor=_supervisor(config, args))


def cmd_list(_: argparse.Namespace) -> int:
    for spec in registry.all_workloads():
        tags = []
        if spec.new_in_chopin:
            tags.append("new")
        if spec.latency_sensitive:
            tags.append("latency")
        suffix = f" [{', '.join(tags)}]" if tags else ""
        print(f"{spec.name:<12} {spec.description}{suffix}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    print(format_report(args.benchmark))
    return 0


def cmd_lbo(args: argparse.Namespace) -> int:
    spec = registry.workload(args.benchmark)
    engine = _engine(args)
    config = _config(args)
    if not engine.supervised:
        curves = lbo_experiment(spec, config=config, engine=engine)
        print(format_lbo_curves(curves, "wall"))
        print()
        print(format_lbo_curves(curves, "task"))
        return 0
    # Supervised sweeps run in partial mode under signal handlers: the
    # first Ctrl-C drains (the cache stays consistent, a resume hint is
    # printed), refused cells become typed holes, and the exit is clean
    # either way — a budget-truncated sweep is a result, not an error.
    with engine.supervisor:
        sweep = supervised_sweep(
            spec,
            multiples=DEFAULT_MULTIPLES,
            config=config,
            engine=engine,
            supervisor=engine.supervisor,
        )
    if sweep.result is not None:
        curves = sweep.result.per_benchmark[0]
        print(format_lbo_curves(curves, "wall"))
        print()
        print(format_lbo_curves(curves, "task"))
    else:
        print("no complete (collector, heap) group — every cell was refused or failed")
    if sweep.holes:
        stats = sweep.stats
        print(
            f"supervision: {len(sweep.holes)}/{sweep.cells} cells incomplete "
            f"({stats.budget_skipped} over budget, {stats.breaker_skipped} "
            f"breaker-open, {stats.drained} drained, {stats.gave_up} gave up); "
            f"{engine.supervisor.resume_hint}",
            file=sys.stderr,
        )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    spec = registry.workload(args.benchmark)
    engine = _engine(args)
    config = _config(args)
    cost_model = None
    if args.cost_model is not None:
        try:
            cost_model = CostModel.load(args.cost_model)
        except ValueError as exc:
            raise SystemExit(f"chopin: {exc}")
    if args.target_ci < 0:
        raise SystemExit(f"chopin: --target-ci must be non-negative, got {args.target_ci}")
    try:
        plan = plan_adaptive(
            spec,
            config=config,
            cell_budget=args.cell_budget,
            target_ci=args.target_ci,
            seed=args.seed,
            kind=args.kind,
        )
    except ValueError as exc:
        raise SystemExit(f"chopin: {exc}")
    tag = "" if args.kind == "lbo" else f" [{args.kind}]"
    print(
        f"plan {spec.name}{tag}: grid {plan.grid_cells} cells "
        f"({len(plan.grid.collectors)} collectors x {len(plan.grid.multiples)} "
        f"multiples x {plan.grid.config.invocations} invocations), "
        f"budget {plan.cell_budget}"
    )
    result = run_adaptive(plan, engine=engine, cost_model=cost_model)
    for rnd in result.rounds:
        cost = f", est {rnd.estimated_cost_s:.2f}s" if cost_model is not None else ""
        print(
            f"round {rnd.index}: {rnd.reason_summary()} -> {rnd.executed} cells "
            f"({rnd.budget_left} budget left{cost})"
        )
    if args.kind == "lbo":
        if result.crossovers:
            print("crossovers (heap factors where mean-cost curves cross):")
            for (benchmark, a, b), points in sorted(result.crossovers.items()):
                where = ", ".join(f"{p:.3f}x" for p in points)
                pair = f"{a} / {b}"
                print(f"  {pair:<24} @ {where}")
        else:
            print("crossovers: none detected in the measured range")
    elif args.kind == "latency":
        if result.reports:
            print("latency tails (metered p99 / p99.9 ms, full smoothing):")
            for (benchmark, collector, multiple) in sorted(result.reports):
                ladder = result.reports[(benchmark, collector, multiple)].metered_at(None)
                print(
                    f"  {collector:<12} @ {multiple:g}x: "
                    f"{ladder[99.0] * 1e3:.3f} / {ladder[99.9] * 1e3:.3f}"
                )
        else:
            print("latency tails: no feasible point in the measured range")
    else:
        if result.min_multiples:
            print("minimum feasible grid multiples (OOM-frontier bisection):")
            for (benchmark, collector) in sorted(result.min_multiples):
                print(
                    f"  {collector:<12} {result.min_multiples[(benchmark, collector)]:g}x"
                )
        else:
            print("minimum feasible grid multiples: none — every candidate OOMs")
    counts = {grade: 0 for grade in GRADES}
    for grade in result.grades.values():
        counts[grade.grade] += 1
    print("grades: " + ", ".join(f"{counts[g]} {g}" for g in GRADES))
    for key in sorted(result.grades):
        grade = result.grades[key]
        if not grade.ok:
            issues = "; ".join(grade.issues)
            print(
                f"  {grade.grade} {grade.benchmark}/{grade.collector}"
                f"@{grade.heap_multiple:g}x (cv={grade.cv:.3f}, "
                f"n={grade.samples}): {issues}"
            )
    if args.rank:
        if args.kind != "lbo":
            print("ranking: only lbo campaigns rank collectors", file=sys.stderr)
        else:
            print("ranking (gmean of wall/cpu/space/instability, lower is better):")
            print(render_ranking(result.ranking))
            if result.unranked:
                print(
                    "unranked (no feasible measurement on some workload): "
                    + ", ".join(result.unranked)
                )
    print(
        f"adaptive: executed {result.cells_executed} of {result.grid_cells} "
        f"grid cells ({result.savings:.1%} saved) in {len(result.rounds)} rounds"
    )
    return 0


def cmd_perfdiff(args: argparse.Namespace) -> int:
    try:
        baseline_paths, current_path = resolve_artifacts(args.artifacts)
        baselines = [load_artifact(p) for p in baseline_paths]
        current = load_artifact(current_path)
        report = diff_artifacts(
            baselines,
            current,
            threshold=args.threshold,
            strict_timings=args.strict_timings,
        )
    except ValueError as exc:
        raise SystemExit(f"chopin: {exc}")
    print(report.render() if not args.quiet else report.verdict())
    return 0 if report.ok else 1


def cmd_latency(args: argparse.Namespace) -> int:
    spec = registry.workload(args.benchmark)
    if not spec.latency_sensitive:
        print(f"{spec.name} is not a latency-sensitive workload", file=sys.stderr)
        return 2
    config = _config(args)
    if config.fidelity == "aggregate":
        print(
            "latency analysis replays requests over per-event timelines; "
            "use --fidelity full (or auto)",
            file=sys.stderr,
        )
        return 2
    engine = _engine(args)
    # The shared campaign path: same plan, engine, and rendering the
    # sweep service uses, so `chopin result` is byte-identical to this.
    campaign = run_campaign(
        "latency",
        spec,
        collectors=COLLECTOR_NAMES,
        multiples=(args.heap,),
        config=config,
        engine=engine,
        strict=True,
    )
    sys.stdout.write(campaign.rendered())
    return 0


def cmd_minheap(args: argparse.Namespace) -> int:
    spec = registry.workload(args.benchmark)
    collectors = tuple(args.collector or COLLECTOR_NAMES)
    for name in collectors:
        try:
            resolve_collector(name)
        except UnknownCollectorError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    engine = _engine(args)
    campaign = run_campaign(
        "minheap",
        spec,
        collectors=collectors,
        config=_config(args),
        engine=engine,
        supervisor=engine.supervisor if engine.supervised else None,
        tolerance=args.tolerance,
    )
    if campaign.empty:
        print("no feasible (benchmark, collector) pair — every search failed or was refused")
    else:
        sys.stdout.write(campaign.rendered())
    if campaign.holes:
        stats = campaign.stats
        print(
            f"supervision: {len(campaign.holes)}/{campaign.cells} cells incomplete "
            f"({stats.budget_skipped} over budget, {stats.breaker_skipped} "
            f"breaker-open, {stats.drained} drained, {stats.gave_up} gave up)",
            file=sys.stderr,
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    for name in (args.collector_a, args.collector_b):
        try:
            resolve_collector(name)
        except UnknownCollectorError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    spec = registry.workload(args.benchmark)
    for metric in ("wall", "task"):
        result = compare_collectors(
            spec, args.collector_a, args.collector_b, args.heap, metric, _config(args)
        )
        print(result.summary())
    return 0


def cmd_insights(args: argparse.Namespace) -> int:
    print(format_insights(args.benchmark, limit=args.limit))
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    spec = registry.workload(args.benchmark)
    measured = characterize(spec, _config(args), include_min_heap=args.minheap)
    published = nominal_data.stats_for(args.benchmark)
    rows = []
    for metric in sorted(measured):
        pub = published.get(metric)
        rows.append(
            [metric, f"{measured[metric]:.1f}", f"{pub:g}" if pub is not None else "-"]
        )
    print(f"Measured vs published nominal statistics for {spec.name}")
    print(format_table(["metric", "measured", "published"], rows))
    return 0


def cmd_runbms(args: argparse.Namespace) -> int:
    from repro.harness.configs import EXPERIMENTS, run_experiment

    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    definition = EXPERIMENTS[args.experiment]
    if args.scale is not None:
        definition = definition.scaled(args.scale)
    written = run_experiment(
        definition, args.results_dir, prefix=args.prefix, engine=_engine(args)
    )
    for name, path in sorted(written.items()):
        print(f"wrote {path}")
    print(f"{len(written)} artefacts for experiment '{definition.name}'")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    spec = registry.workload(args.benchmark)
    collectors = args.collector or list(COLLECTOR_NAMES)
    for name in collectors:
        try:
            resolve_collector(name)
        except UnknownCollectorError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    multiples = tuple(args.multiple) if args.multiple else (2.0, 3.0)
    engine = _engine(args)
    engine.recorder = Recorder(capacity=args.ring_size)
    session = trace_sweep(spec, collectors, multiples, _config(args), engine=engine)
    events = session.recorder.events()
    problems = validate_chrome_trace(chrome_trace(events))
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    path = write_chrome_trace(events, args.trace_out)
    print(f"wrote {path} ({len(events)} events; open it at https://ui.perfetto.dev)")
    if args.jsonl_out:
        print(f"wrote {write_jsonl(events, args.jsonl_out)}")
    if session.recorder.dropped:
        print(
            f"note: ring buffer overflowed, {session.recorder.dropped} oldest "
            f"events dropped (raise --ring-size to keep them)",
            file=sys.stderr,
        )
    stats = session.stats
    print(
        f"cells: {stats.cells} ({stats.executed} simulated, {stats.hits} cache hits, "
        f"{stats.negative_hits} negative, {stats.hit_rate:.0%} hit rate)"
    )
    if args.metrics:
        registry_ = MetricsRegistry()
        registry_.ingest(events)
        print()
        print(registry_.render())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    spec = registry.workload(args.benchmark)
    collectors = args.collector or ["Serial", "G1"]
    for name in collectors:
        try:
            resolve_collector(name)
        except UnknownCollectorError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.service:
        return _cmd_chaos_service(args, tuple(collectors))
    multiples = tuple(args.multiple) if args.multiple else (2.0, 3.0)
    drill = chaos_drill(
        spec,
        collectors=tuple(collectors),
        multiples=multiples,
        config=_config(args),
        chaos_rate=args.chaos_rate,
        chaos_seed=args.chaos_seed,
        retries=args.retries,
        cell_timeout_s=args.cell_timeout,
        jobs=args.jobs,
    )
    stats = drill.stats
    print(
        f"chaos drill: {drill.cells} cells at rate {args.chaos_rate:g} "
        f"(seed {args.chaos_seed}, retry budget {args.retries})"
    )
    print(f"injected: {stats.faults} faults")
    print(
        f"absorbed: {stats.retries} retries, {stats.timeouts} timeouts, "
        f"{stats.corrupt} torn cache entries, {stats.gave_up} cells given up"
    )
    for hole in drill.holes:
        cell = hole.cell
        print(
            f"hole: {cell.spec.name}/{cell.collector}/{cell.heap_mb:g}MB"
            f"#{cell.invocation} after {hole.attempts} attempts: {hole.error}",
            file=sys.stderr,
        )
    if drill.divergent:
        print(
            f"{drill.divergent} cells diverged from the fault-free baseline",
            file=sys.stderr,
        )
    if drill.ok:
        print("PASS: zero holes, every cell bit-identical to the fault-free run")
        return 0
    if drill.vacuous:
        print(
            f"FAIL: no fault fired at rate {args.chaos_rate:g} and seed "
            f"{args.chaos_seed} — pick another --chaos-seed",
            file=sys.stderr,
        )
        return 1
    print("FAIL: resilience drill left holes or divergent results", file=sys.stderr)
    return 1


def _cmd_chaos_service(args: argparse.Namespace, collectors: tuple) -> int:
    """``chopin chaos --service``: the process-level drill — worker
    death, heartbeat stalls, torn journal appends, and shard corruption
    against a real service, recovery proven byte-identical."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="chopin-chaos-service-") as state_dir:
        drill = service_chaos_drill(
            state_dir,
            args.benchmark,
            collectors=collectors,
            seed=args.chaos_seed,
            invocations=args.invocations,
            scale=args.scale,
            stream=sys.stderr,
        )
    print(
        f"service chaos drill: {len(drill.scenarios)} scenarios, "
        f"{drill.checks} checks (seed {drill.seed})"
    )
    for scenario in drill.scenarios:
        marker = "ok" if scenario.ok else "FAILED"
        print(f"  {scenario.name}: {marker}")
        for failure in scenario.failures:
            print(f"    failed: {failure}", file=sys.stderr)
    if drill.ok:
        print(
            "PASS: no job lost, no cached cell re-simulated, every recovered "
            "result byte-identical to the one-shot run"
        )
        return 0
    print("FAIL: the service drill left unrecovered damage", file=sys.stderr)
    return 1


def cmd_doctor(args: argparse.Namespace) -> int:
    scan = scan_cache(args.cache_dir, quarantine=not args.dry_run)
    print(
        f"doctor: scanned {scan.scanned} cache entries — {scan.healthy} healthy, "
        f"{scan.corrupt} corrupt, {scan.stale} schema-stale, "
        f"{scan.misplaced} misplaced"
    )
    for path, kind in scan.problems:
        print(f"doctor: {kind}: {path}", file=sys.stderr)
    if scan.quarantined:
        print(
            f"doctor: quarantined {scan.quarantined} entr"
            f"{'y' if scan.quarantined == 1 else 'ies'} into {scan.quarantine_dir}"
        )
    elif scan.unhealthy and args.dry_run:
        print(f"doctor: dry run — {scan.unhealthy} unhealthy entries left in place")
    if args.jobs_journal:
        jobs_scan = scan_jobs_journal(args.jobs_journal)
        states = ", ".join(
            f"{count} {state}" for state, count in sorted(jobs_scan.by_state.items())
        )
        print(
            f"doctor: jobs journal: {jobs_scan.jobs} jobs across "
            f"{jobs_scan.segments + 1} segment(s) ({jobs_scan.lines} lines, "
            f"{jobs_scan.torn} torn, {jobs_scan.requeues} requeues): "
            f"{states or 'empty'}"
        )
        for job_id in jobs_scan.orphaned:
            print(
                f"doctor: orphaned RUNNING job {job_id} — no live lease; "
                f"the next service start will requeue it",
                file=sys.stderr,
            )
        for job_id, error in jobs_scan.dead_letters:
            print(f"doctor: dead-lettered {job_id}: {error}", file=sys.stderr)
        jobs_compaction = compact_jobs_journal(args.jobs_journal)
        if jobs_compaction.compacted:
            print(
                f"doctor: jobs journal compacted {jobs_compaction.lines_before} "
                f"-> {jobs_compaction.lines_after} lines "
                f"({jobs_compaction.segments_before} segment(s) folded, "
                f"{jobs_compaction.torn} torn dropped)"
            )
        else:
            print("doctor: jobs journal already compact")
    if args.verify:
        spec = registry.workload(args.verify)
        cells = plan_lbo(spec, config=_config(args)).cells()
        report = verify_cells(
            cells, args.cache_dir, sample=args.verify_sample, quarantine=not args.dry_run
        )
        print(
            f"doctor: verified {report.sampled} cached cells against "
            f"recomputation — {report.matched} matched, "
            f"{report.mismatched} mismatched"
        )
        for key in report.divergent_keys:
            print(f"doctor: divergent payload quarantined: {key}", file=sys.stderr)
        if report.mismatched:
            return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    config = harness_config(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=True if args.no_cache else None,
        progress=True if args.cell_progress else None,
        retries=args.retries,
        cell_timeout_s=args.cell_timeout,
        chaos_rate=args.chaos_rate,
        chaos_seed=args.chaos_seed,
        budget_s=args.budget,
        breaker_threshold=args.breaker_threshold,
        batch=args.batch,
        serve_host=args.host,
        serve_port=args.port,
        cache_shards=args.cache_shards,
        lease_s=args.lease,
        max_requeues=args.max_requeues,
        queue_high_water=args.queue_high_water,
    )
    return service_from_config(config, args.state_dir, workers=args.workers).run()


def _service_client(args: argparse.Namespace) -> ServiceClient:
    url = args.url
    if url is None:
        # No --url: the same CHOPIN_SERVE_HOST/PORT resolution `chopin
        # serve` used, so client and server agree by default.
        config = harness_config()
        url = f"http://{config.serve_host}:{config.serve_port}"
    return ServiceClient(
        url, timeout_s=args.timeout, retries=getattr(args, "retries", 0)
    )


def cmd_submit(args: argparse.Namespace) -> int:
    spec = JobSpec(
        benchmark=args.benchmark,
        collectors=tuple(args.collector or ()),
        multiples=tuple(args.multiple or ()),
        invocations=args.invocations,
        scale=args.scale,
        fidelity=None if args.fidelity == "auto" else args.fidelity,
        priority=args.priority,
        budget_s=args.budget,
        kind=args.kind,
    )
    try:
        with _service_client(args) as client:
            reply = client.submit(spec)
    except ServiceError as exc:
        print(f"chopin submit: {exc}", file=sys.stderr)
        return 1
    # Bare job id on stdout (scripts capture it); the chatter on stderr.
    print(f"submitted {reply['id']} ({reply['state']}) to {client.base_url}",
          file=sys.stderr)
    print(reply["id"])
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    try:
        with _service_client(args) as client:
            payload = client.status(args.job_id)
    except ServiceError as exc:
        print(f"chopin status: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    try:
        with _service_client(args) as client:
            if args.wait is not None:
                client.wait(args.job_id, timeout_s=args.wait)
            payload = client.result(args.job_id)
    except ServiceError as exc:
        print(f"chopin result: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload["state"] in ("DONE", "PARTIAL") else 1
    result = payload.get("result")
    if result is not None:
        # Byte-identical to `chopin lbo` stdout (the rendered text
        # already carries its trailing newline) — diff them in CI.
        sys.stdout.write(result["rendered"])
    holes = payload.get("holes") or []
    if holes:
        print(
            f"supervision: {len(holes)}/{payload.get('cells', 0)} cells "
            f"incomplete (job {payload['state']})",
            file=sys.stderr,
        )
    if payload["state"] in ("DONE", "PARTIAL"):
        return 0
    print(
        f"{payload['id']} {payload['state']}: {payload.get('error') or 'no result'}",
        file=sys.stderr,
    )
    return 1


def cmd_cancel(args: argparse.Namespace) -> int:
    try:
        with _service_client(args) as client:
            reply = client.cancel(args.job_id)
    except ServiceError as exc:
        print(f"chopin cancel: {exc}", file=sys.stderr)
        return 1
    print(f"{reply['id']} {reply['state']} ({reply['outcome']})")
    return 0


def cmd_pca(args: argparse.Namespace) -> int:
    result = suite_pca(n_components=4)
    print("Principal components analysis of the DaCapo Chopin workloads")
    print(f"metrics with complete coverage: {len(result.metrics)}")
    print()
    print(format_pca_projection(result, (0, 1)))
    print()
    print(format_pca_projection(result, (2, 3)))
    print()
    top = determinant_metrics(result, count=12)
    print(f"twelve most determinant metrics: {', '.join(top)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chopin",
        description="DaCapo Chopin methodology suite over a simulated JVM",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 22 workloads").set_defaults(func=cmd_list)

    p_stats = sub.add_parser("stats", help="print nominal statistics (-p report)")
    p_stats.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_stats.set_defaults(func=cmd_stats)

    p_lbo = sub.add_parser("lbo", help="lower-bound overhead curves for a benchmark")
    p_lbo.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    _add_run_options(p_lbo)
    p_lbo.set_defaults(func=cmd_lbo)

    p_plan = sub.add_parser(
        "plan",
        help="adaptive campaign: bisect toward crossovers (lbo), refine "
        "moving latency tails, or bisect the OOM frontier (minheap) — "
        "and report cells saved vs the fixed grid",
    )
    p_plan.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_plan.add_argument(
        "--kind",
        choices=PLAN_KINDS,
        default="lbo",
        help="campaign family to plan adaptively (default: lbo)",
    )
    p_plan.add_argument(
        "--cell-budget",
        type=_positive_int,
        default=None,
        help="max cells to execute (default: half the fixed grid)",
    )
    p_plan.add_argument(
        "--target-ci",
        type=float,
        default=0.05,
        help="relative CI half-width at which point refinement stops "
        "(0 refines crossover brackets to the full invocation count)",
    )
    p_plan.add_argument(
        "--seed",
        type=_non_negative_int,
        default=0,
        help="tie-break seed: same seed + same cache state replays a "
        "byte-identical schedule",
    )
    p_plan.add_argument(
        "--rank",
        action="store_true",
        help="print the gmean collector ranking with per-component breakdown",
    )
    p_plan.add_argument(
        "--cost-model",
        default=None,
        metavar="PATH",
        help="saved EWMA cost model (e.g. a serve state dir's "
        "costmodel.json) used to estimate each round's wall-clock price",
    )
    _add_run_options(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_diff = sub.add_parser(
        "perfdiff",
        help="diff BENCH_*.json artifacts with CV-aware thresholds; "
        "non-zero exit on regression",
    )
    p_diff.add_argument(
        "artifacts",
        nargs="+",
        metavar="ARTIFACT",
        help="baseline artifact(s) — files or a benchmarks/results "
        "series directory — followed by the fresh artifact last",
    )
    p_diff.add_argument(
        "--threshold",
        type=_positive_float,
        default=DEFAULT_THRESHOLD,
        help="allowed relative drop on higher-is-better keys before the "
        "diff fails (widened per key by 3x its CV across a baseline series)",
    )
    p_diff.add_argument(
        "--strict-timings",
        action="store_true",
        help="gate raw *_s timing keys too (same-machine comparisons)",
    )
    p_diff.add_argument(
        "--quiet", action="store_true", help="print only the one-line verdict"
    )
    p_diff.set_defaults(func=cmd_perfdiff)

    p_lat = sub.add_parser("latency", help="user-experienced latency for a benchmark")
    p_lat.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_lat.add_argument("--heap", type=float, default=2.0, help="heap multiple of min heap")
    _add_run_options(p_lat)
    p_lat.set_defaults(func=cmd_latency)

    p_mh = sub.add_parser(
        "minheap",
        help="minimum-heap search per collector (engine-backed: cached, "
        "batched, supervised, resumable)",
    )
    p_mh.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_mh.add_argument(
        "--collector",
        action="append",
        default=None,
        help="collector to search (repeatable; default: all five)",
    )
    p_mh.add_argument(
        "--tolerance",
        type=_positive_float,
        default=0.02,
        help="relative bracket width at which the search stops (default: 0.02)",
    )
    _add_run_options(p_mh)
    p_mh.set_defaults(func=cmd_minheap)

    p_trace = sub.add_parser(
        "trace", help="record a sweep with the flight recorder (Perfetto trace)"
    )
    p_trace.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_trace.add_argument(
        "--collector",
        action="append",
        default=None,
        help="collector to trace (repeatable; default: all five)",
    )
    p_trace.add_argument(
        "--multiple",
        action="append",
        type=float,
        default=None,
        help="heap multiple to trace (repeatable; default: 2.0 and 3.0)",
    )
    p_trace.add_argument(
        "--trace-out",
        default="trace.json",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    p_trace.add_argument(
        "--jsonl-out", default=None, help="also write raw typed events as JSONL"
    )
    p_trace.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics dump (counters, hit rate, pause percentiles)",
    )
    p_trace.add_argument(
        "--ring-size",
        type=_positive_int,
        default=65536,
        help="flight-recorder ring capacity in events (default: 65536)",
    )
    _add_run_options(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_chaos = sub.add_parser(
        "chaos", help="prove the resilience layer: faulted sweep vs fault-free"
    )
    p_chaos.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_chaos.add_argument(
        "--collector",
        action="append",
        default=None,
        help="collector to sweep (repeatable; default: Serial and G1)",
    )
    p_chaos.add_argument(
        "--multiple",
        action="append",
        type=_positive_float,
        default=None,
        help="heap multiple to sweep (repeatable; default: 2.0 and 3.0)",
    )
    p_chaos.add_argument(
        "--chaos-rate",
        type=_rate,
        default=0.3,
        help="overall fault-injection rate (default: 0.3)",
    )
    p_chaos.add_argument(
        "--chaos-seed", type=int, default=0, help="fault-injection seed (default: 0)"
    )
    p_chaos.add_argument(
        "--retries",
        type=_non_negative_int,
        default=3,
        help="retry budget per cell (default: 3)",
    )
    p_chaos.add_argument(
        "--cell-timeout",
        type=_positive_float,
        default=None,
        help="per-cell timeout in seconds",
    )
    p_chaos.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes (1 = in-process serial)",
    )
    p_chaos.add_argument(
        "--invocations", type=_positive_int, default=2, help="invocations per data point"
    )
    p_chaos.add_argument(
        "--scale",
        type=_positive_float,
        default=0.1,
        help="iteration duration scale (default: 0.1 — drills should be quick)",
    )
    p_chaos.add_argument(
        "--service",
        action="store_true",
        help="run the service-level drill instead: worker death, heartbeat "
        "stalls, torn journal appends, and cache-shard corruption against "
        "a real (ephemeral) service, with recovery proven byte-identical "
        "to the one-shot run",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_doc = sub.add_parser(
        "doctor", help="self-heal the result cache and the service job journal"
    )
    p_doc.add_argument(
        "--cache-dir",
        required=True,
        help="result-cache directory to scan (corrupt/stale/misplaced entries "
        "are quarantined, never deleted)",
    )
    p_doc.add_argument(
        "--jobs-journal",
        default=None,
        metavar="PATH",
        help="a (stopped) service's jobs.jsonl: scan every rotation segment "
        "for orphaned RUNNING jobs and dead letters, then compact to one "
        "snapshot line per job",
    )
    p_doc.add_argument(
        "--verify",
        default=None,
        metavar="BENCHMARK",
        choices=nominal_data.BENCHMARK_NAMES,
        help="re-simulate a sample of this benchmark's cached cells and "
        "compare payloads bit-for-bit",
    )
    p_doc.add_argument(
        "--verify-sample",
        type=_positive_int,
        default=8,
        help="cached cells to re-verify with --verify (default: 8)",
    )
    p_doc.add_argument(
        "--dry-run",
        action="store_true",
        help="report problems without quarantining anything",
    )
    p_doc.add_argument(
        "--invocations",
        type=_positive_int,
        default=3,
        help="invocations per data point of the sweep being verified",
    )
    p_doc.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="duration scale of the sweep being verified",
    )
    p_doc.add_argument(
        "--fidelity",
        choices=("auto", "aggregate", "full"),
        default=os.environ.get("CHOPIN_FIDELITY", "auto"),
        help="fidelity tier of the sweep being verified",
    )
    p_doc.set_defaults(func=cmd_doctor)

    sub.add_parser("pca", help="suite diversity analysis (Figure 4)").set_defaults(func=cmd_pca)

    p_char = sub.add_parser(
        "characterize", help="measure nominal statistics from the simulator"
    )
    p_char.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_char.add_argument("--minheap", action="store_true", help="include the GMD search")
    _add_run_options(p_char)
    p_char.set_defaults(func=cmd_characterize)

    p_cmp = sub.add_parser(
        "compare", help="statistically sound collector comparison (bootstrap)"
    )
    p_cmp.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_cmp.add_argument("collector_a")
    p_cmp.add_argument("collector_b")
    p_cmp.add_argument("--heap", type=float, default=2.0, help="heap multiple of min heap")
    _add_run_options(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_ins = sub.add_parser(
        "insights", help="appendix-style qualitative characterization"
    )
    p_ins.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_ins.add_argument("--limit", type=int, default=10, help="statements to include")
    p_ins.set_defaults(func=cmd_insights)

    p_serve = sub.add_parser(
        "serve", help="run the long-running sweep service (HTTP/JSON job queue)"
    )
    p_serve.add_argument(
        "--state-dir",
        required=True,
        help="directory for the job journal and (unless --cache-dir) the "
        "shared sharded result cache; a restarted service resumes its "
        "queue from here",
    )
    p_serve.add_argument(
        "--host",
        default=None,
        help="bind address (default: 127.0.0.1; env: CHOPIN_SERVE_HOST)",
    )
    p_serve.add_argument(
        "--port",
        type=_non_negative_int,
        default=None,
        help="bind port, 0 for ephemeral (default: 8642; env: CHOPIN_SERVE_PORT)",
    )
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker threads (default: 1 — jobs serialize, so overlapping "
        "sweeps never simulate a shared cell twice)",
    )
    p_serve.add_argument(
        "--cache-shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="fan-out of the shared result cache: 1, 16, 256, or 4096 "
        "(default: 256; env: CHOPIN_CACHE_SHARDS)",
    )
    p_serve.add_argument(
        "--lease",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="job lease: a RUNNING job whose worker stops renewing for this "
        "long is requeued by the reaper (default: 60; env: CHOPIN_LEASE_S)",
    )
    p_serve.add_argument(
        "--max-requeues",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="lease expiries before a job dead-letters instead of requeueing "
        "(default: 3; env: CHOPIN_MAX_REQUEUES)",
    )
    p_serve.add_argument(
        "--queue-high-water",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="queue depth at which POST /jobs starts shedding with 503 + "
        "Retry-After; 0 disables (default: 0; env: CHOPIN_QUEUE_HIGH_WATER)",
    )
    _add_engine_options(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    def _add_client_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--url",
            default=None,
            help="service base URL (default: built from CHOPIN_SERVE_HOST "
            "and CHOPIN_SERVE_PORT)",
        )
        parser.add_argument(
            "--timeout",
            type=_positive_float,
            default=10.0,
            help="per-request HTTP timeout in seconds (default: 10)",
        )
        parser.add_argument(
            "--retries",
            type=_non_negative_int,
            default=0,
            help="retry a shed (503) or unreachable submit this many times "
            "with bounded backoff, honoring the server's Retry-After "
            "(default: 0)",
        )

    p_sub = sub.add_parser(
        "submit", help="submit a campaign job (lbo/latency/minheap) to a running service"
    )
    p_sub.add_argument("benchmark", choices=nominal_data.BENCHMARK_NAMES)
    p_sub.add_argument(
        "--kind",
        choices=PLAN_KINDS,
        default="lbo",
        help="campaign kind to run (default: lbo)",
    )
    p_sub.add_argument(
        "--collector",
        action="append",
        default=None,
        help="collector to sweep (repeatable; default: all five)",
    )
    p_sub.add_argument(
        "--multiple",
        action="append",
        type=_positive_float,
        default=None,
        help="heap multiple to sweep (repeatable; default: the lbo grid)",
    )
    p_sub.add_argument(
        "--invocations", type=_positive_int, default=3, help="invocations per data point"
    )
    p_sub.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="iteration duration scale (use <1 for quick looks)",
    )
    p_sub.add_argument(
        "--fidelity",
        choices=("auto", "aggregate", "full"),
        default="auto",
        help="telemetry tier for the job (default: auto)",
    )
    p_sub.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority: higher runs first, ties are FIFO (default: 0)",
    )
    p_sub.add_argument(
        "--budget",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-job deadline budget: refused cells become typed holes "
        "in the status payload",
    )
    _add_client_options(p_sub)
    p_sub.set_defaults(func=cmd_submit)

    p_st = sub.add_parser("status", help="print a service job's status as JSON")
    p_st.add_argument("job_id")
    _add_client_options(p_st)
    p_st.set_defaults(func=cmd_status)

    p_res = sub.add_parser(
        "result",
        help="fetch a terminal job's result (byte-identical to the "
        "one-shot chopin lbo/latency/minheap)",
    )
    p_res.add_argument("job_id")
    p_res.add_argument(
        "--wait",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="poll until the job is terminal, up to this many seconds",
    )
    p_res.add_argument(
        "--json",
        action="store_true",
        help="print the full JSON payload (structured curves, holes, stats)",
    )
    _add_client_options(p_res)
    p_res.set_defaults(func=cmd_result)

    p_can = sub.add_parser(
        "cancel", help="cancel a queued job, or drain a running one into typed holes"
    )
    p_can.add_argument("job_id")
    _add_client_options(p_can)
    p_can.set_defaults(func=cmd_cancel)

    p_run = sub.add_parser(
        "runbms", help="run a predefined experiment (the running-ng analogue)"
    )
    p_run.add_argument("results_dir", help="directory to write rendered results into")
    p_run.add_argument("experiment", help="experiment name (see repro.harness.configs)")
    p_run.add_argument("-p", "--prefix", default="", help="artefact filename prefix")
    p_run.add_argument("-s", "--scale", type=float, default=None, help="duration scale override")
    _add_engine_options(p_run)
    p_run.set_defaults(func=cmd_runbms)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
