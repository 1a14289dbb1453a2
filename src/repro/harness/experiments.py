"""Pre-packaged experiments: the analyses behind each figure of the paper.

Each function here corresponds to a figure or family of figures; the
benchmark harness in ``benchmarks/`` and the examples call these.

Since the engine redesign these are thin, signature-stable wrappers over
:mod:`repro.harness.plans`: each one builds an
:class:`~repro.harness.plans.ExperimentPlan` and submits it through
:func:`~repro.harness.plans.run_plan`.  All of them accept an optional
``engine`` — pass an :class:`~repro.harness.engine.ExecutionEngine` to
fan cells out over worker processes and memoize results on disk; omit it
for the legacy in-process serial behaviour.  Results are bit-identical
either way (each cell reseeds from its own coordinates).
"""

from __future__ import annotations

import pickle
import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.engine import Cell, EngineStats, ExecutionEngine, Hole
from repro.observability import Recorder
from repro.resilience import FaultInjector, FaultSpec, RetryPolicy, Supervisor
from repro.harness.plans import (
    DEFAULT_MULTIPLES,
    PLAN_KINDS,
    LatencyRun,
    SuiteLbo,
    _assemble_lbo,
    _scaled_for_replay,
    plan_latency,
    plan_lbo,
    plan_minheap,
    run_plan,
)
from repro.harness.report import (
    format_latency_comparison,
    format_lbo_curves,
    format_minheap,
)
from repro.harness.runner import DEFAULT_CONFIG, RunConfig
from repro.core.lbo import LboCurves
from repro.core.latency import LatencyReport
from repro.core.minheap import MinHeapResult
from repro.jvm.collectors import COLLECTOR_NAMES, resolve_collector
from repro.jvm.heap import OutOfMemoryError
from repro.jvm.telemetry import FIDELITY_FULL
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "Campaign",
    "ChaosDrill",
    "DEFAULT_MULTIPLES",
    "LatencyRun",
    "SuiteLbo",
    "SupervisedSweep",
    "TracedSweep",
    "chaos_drill",
    "heap_timeseries",
    "latency_experiment",
    "lbo_experiment",
    "minheap_experiment",
    "run_campaign",
    "suite_lbo",
    "supervised_sweep",
    "trace_sweep",
]


def lbo_experiment(
    spec: WorkloadSpec,
    collectors: Sequence[str] = COLLECTOR_NAMES,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    config: RunConfig = DEFAULT_CONFIG,
    engine: Optional[ExecutionEngine] = None,
) -> LboCurves:
    """Wall and task LBO curves for one benchmark (Figure 5 and appendix).

    Collector/heap combinations that cannot complete (OutOfMemoryError)
    are simply absent from the curves, which is how the paper plots ZGC*
    starting at larger multiples.
    """
    suite = run_plan(plan_lbo(spec, collectors, multiples, config), engine)
    return suite.per_benchmark[0]


def suite_lbo(
    specs: Sequence[WorkloadSpec],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    config: RunConfig = DEFAULT_CONFIG,
    engine: Optional[ExecutionEngine] = None,
) -> SuiteLbo:
    """The Figure 1 experiment: geometric-mean LBO over the suite.

    Following the paper, a geomean point appears only where the collector
    runs *every* benchmark at that heap multiple.
    """
    return run_plan(plan_lbo(specs, collectors, multiples, config), engine)


def latency_experiment(
    spec: WorkloadSpec,
    collector: str,
    heap_multiple: float,
    config: RunConfig = DEFAULT_CONFIG,
    invocation: int = 0,
    engine: Optional[ExecutionEngine] = None,
) -> LatencyRun:
    """Measure user-experienced latency (Figures 3 and 6).

    Runs the workload, then replays its pre-determined request stream over
    the timed iteration's timeline and computes simple and metered latency.
    """
    plan = plan_latency(
        spec, (collector,), (heap_multiple,), config, replay_invocation=invocation
    )
    return run_plan(plan, engine, strict=True)[0]


def minheap_experiment(
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    config: RunConfig = DEFAULT_CONFIG,
    tolerance: float = 0.02,
    probes: int = 1,
    engine: Optional[ExecutionEngine] = None,
) -> List[MinHeapResult]:
    """Minimum-heap search (Recommendation H2) through the engine.

    The probe schedule is the same generator
    :func:`~repro.core.minheap.find_min_heap` drives inline, so the
    reported minima are bit-identical to the legacy search — but probes
    flow through the engine, so they cache, batch, supervise, and
    resume like any other cells.  Infeasible (benchmark, collector)
    pairs are dropped from the result list.
    """
    plan = plan_minheap(specs, collectors, config, tolerance=tolerance, probes=probes)
    return run_plan(plan, engine)


@dataclass(frozen=True)
class Campaign:
    """One campaign's outcome, whatever its kind — the common shape the
    service worker and the one-shot CLI both consume.

    ``result`` is kind-shaped: a :class:`SuiteLbo` (or ``None`` when
    every group was refused) for ``kind="lbo"``, a list of
    :class:`LatencyRun` for ``kind="latency"``, a list of
    :class:`~repro.core.minheap.MinHeapResult` for ``kind="minheap"``.
    ``cells`` counts the cells the campaign touched (for dynamic
    min-heap schedules: served by the engine plus holed), ``holes`` the
    incomplete ones with their typed reasons, ``stats`` the engine
    delta, and ``drained`` whether a graceful shutdown was in progress.
    """

    kind: str
    cells: int
    result: Union[Optional[SuiteLbo], List[LatencyRun], List[MinHeapResult]]
    holes: List[Hole]
    stats: EngineStats
    drained: bool = False

    @property
    def empty(self) -> bool:
        """True when the campaign produced no usable result at all."""
        return self.result is None if self.kind == "lbo" else not self.result

    def rendered(self) -> str:
        """The campaign's result tables, byte-identical to the one-shot
        CLI's stdout for the same request (``chopin lbo`` / ``latency``
        / ``minheap``) — the text the service journals and ``chopin
        result`` replays."""
        if self.empty:
            return ""
        if self.kind == "lbo":
            curves = self.result.per_benchmark[0]
            return (
                format_lbo_curves(curves, "wall")
                + "\n\n"
                + format_lbo_curves(curves, "task")
                + "\n"
            )
        if self.kind == "latency":
            # One three-table block (simple / 0.1 ms-smoothed / full
            # smoothing) per (benchmark, heap multiple) group, in run
            # order: a single-benchmark single-heap campaign renders
            # exactly `chopin latency`'s stdout.
            groups: Dict[Tuple[str, float], Dict[str, LatencyReport]] = {}
            for run in self.result:
                key = (run.benchmark, run.heap_multiple)
                groups.setdefault(key, {})[run.collector] = run.report
            blocks = [
                "\n\n".join(
                    format_latency_comparison(reports, window)
                    for window in ("simple", 0.1, None)
                )
                for reports in groups.values()
            ]
            return "\n\n".join(blocks) + "\n"
        return format_minheap(self.result) + "\n"


def run_campaign(
    kind: str,
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    multiples: Optional[Sequence[float]] = None,
    config: RunConfig = DEFAULT_CONFIG,
    engine: Optional[ExecutionEngine] = None,
    supervisor: Optional[Supervisor] = None,
    strict: bool = False,
    tolerance: float = 0.02,
    replay_invocation: int = 0,
) -> Campaign:
    """Run one campaign of any kind through the shared execution stack.

    The single dispatch point behind ``chopin lbo`` / ``latency`` /
    ``minheap`` and the sweep service's worker: every kind compiles to
    an :class:`~repro.harness.plans.ExperimentPlan`, executes through
    the same engine (cache, batch kernel, supervisor, recorder), and
    comes back as a :class:`Campaign` whose :meth:`~Campaign.rendered`
    text is byte-identical between the one-shot and served paths.

    ``multiples=None`` picks the kind's default grid — the LBO grid,
    ``(2.0,)`` for latency, and the dynamic probe schedule for min-heap
    (which ignores ``multiples`` entirely).  Campaigns always run in
    partial mode: refused or failed cells surface as typed holes, and
    ``strict`` upgrades the first hole (or OOM group) to an exception
    instead.
    """
    if kind not in PLAN_KINDS:
        raise ValueError(f"unknown campaign kind {kind!r}; choose from {PLAN_KINDS}")
    engine = engine if engine is not None else ExecutionEngine()
    if kind == "lbo":
        sweep = supervised_sweep(
            specs,
            collectors=collectors,
            multiples=tuple(multiples) if multiples else DEFAULT_MULTIPLES,
            config=config,
            engine=engine,
            supervisor=supervisor,
        )
        return Campaign(
            kind="lbo",
            cells=sweep.cells,
            result=sweep.result,
            holes=sweep.holes,
            stats=sweep.stats,
            drained=sweep.drained,
        )
    if kind == "latency":
        plan = plan_latency(
            specs,
            collectors,
            tuple(multiples) if multiples else (2.0,),
            config,
            replay_invocation=replay_invocation,
        )
    else:
        plan = plan_minheap(specs, collectors, config, tolerance=tolerance)
    result, holes, stats = run_plan(
        plan,
        engine,
        strict=strict,
        partial=True,
        return_stats=True,
        supervisor=supervisor,
    )
    cells = (
        plan.cell_count
        if plan.cell_count
        else stats.executed + stats.cached + stats.negative_hits + len(holes)
    )
    return Campaign(
        kind=kind,
        cells=cells,
        result=result,
        holes=list(holes),
        stats=stats,
        drained=supervisor.draining if supervisor is not None else False,
    )


@dataclass(frozen=True)
class TracedSweep:
    """What :func:`trace_sweep` hands back: results plus observability.

    ``result`` is the assembled :class:`SuiteLbo`; ``stats`` is the
    engine-stats delta for this sweep (hits, misses, negative OOM hits,
    cells simulated); ``recorder`` holds the flight recording ready for
    :func:`repro.observability.write_chrome_trace` or
    :meth:`repro.observability.MetricsRegistry.ingest`.
    """

    result: SuiteLbo
    stats: EngineStats
    recorder: Recorder


def trace_sweep(
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    multiples: Sequence[float] = (2.0, 3.0),
    config: RunConfig = DEFAULT_CONFIG,
    engine: Optional[ExecutionEngine] = None,
    recorder: Optional[Recorder] = None,
) -> TracedSweep:
    """Run an LBO-style sweep under the flight recorder (``chopin trace``).

    Wires a :class:`~repro.observability.Recorder` into the engine (the
    caller's ``engine`` is reused with its own recorder if it already has
    one enabled), runs the plan, and returns results, per-sweep engine
    stats, and the recording together.  Because recording is
    observational, ``result`` is bit-identical to the same sweep run
    without it.
    """
    if engine is None:
        recorder = recorder if recorder is not None else Recorder()
        engine = ExecutionEngine(recorder=recorder)
    elif not engine.recorder.enabled:
        engine.recorder = recorder if recorder is not None else Recorder()
    # The trace nests GC pauses/spans/stalls inside each cell span, which
    # only full-fidelity results carry — recording auto-upgrades the
    # config to the full tier (aggregate included, mirroring
    # ``simulate_run``'s recorder upgrade).
    if config.fidelity != FIDELITY_FULL:
        config = replace(config, fidelity=FIDELITY_FULL)
    result, stats = run_plan(
        plan_lbo(specs, collectors, multiples, config), engine, return_stats=True
    )
    return TracedSweep(result=result, stats=stats, recorder=engine.recorder)


@dataclass(frozen=True)
class ChaosDrill:
    """Outcome of :func:`chaos_drill`: did resilience hold under fire?

    ``cells`` is the sweep size, ``holes`` the cells the chaos run could
    not complete, ``divergent`` how many completed cells differed from
    the fault-free baseline (must be 0 — injection is forbidden from
    perturbing results), and ``stats`` the chaos engine's counters
    (faults injected, retries, timeouts, torn cache entries detected).
    """

    cells: int
    holes: List[Hole]
    divergent: int
    stats: EngineStats
    chaos_rate: float = 0.0

    @property
    def vacuous(self) -> bool:
        """True when chaos was armed but no fault fired — a drill that
        proved nothing, however clean its results."""
        return self.chaos_rate > 0 and self.stats.faults == 0

    @property
    def ok(self) -> bool:
        """True when the chaos run was complete, bit-identical, and not
        :attr:`vacuous`."""
        return not self.holes and self.divergent == 0 and not self.vacuous


def chaos_drill(
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = ("Serial", "G1"),
    multiples: Sequence[float] = (2.0, 3.0),
    config: RunConfig = DEFAULT_CONFIG,
    chaos_rate: float = 0.3,
    chaos_seed: int = 0,
    retries: int = 3,
    cell_timeout_s: Optional[float] = None,
    hang_s: float = 0.05,
    jobs: int = 1,
) -> ChaosDrill:
    """Prove the resilience layer on a real sweep (``chopin chaos``).

    Runs the same LBO-style sweep twice — once clean, once under a
    seeded :class:`~repro.resilience.FaultInjector` with a retry budget
    and a throwaway result cache — and compares every completed cell's
    payload byte-for-byte.  The chaos engine then re-reads the whole
    sweep warm: ``corrupt`` faults tear a cache entry *after* it is
    written, so only a second read observes them — without the warm
    pass (and the cache) a quarter of ``--chaos-rate`` would silently
    never fire.  A passing drill means injected crashes, transient
    faults, hangs, and torn cache entries were absorbed with zero holes
    and zero divergence, which is the engine's determinism guarantee
    extended to failure — and that at least one fault fired, since a
    seed that draws none proves nothing.  The CI chaos smoke job gates
    on ``ok``.
    """
    plan = plan_lbo(specs, collectors, multiples, config)
    cells = plan.cells()
    clean = ExecutionEngine(jobs=jobs).run_cells(cells)
    with tempfile.TemporaryDirectory(prefix="chopin-chaos-") as scratch:
        chaos_engine = ExecutionEngine(
            jobs=jobs,
            cache_dir=scratch,
            retry=RetryPolicy(
                retries=retries, cell_timeout_s=cell_timeout_s, backoff_base_s=0.01
            ),
            injector=FaultInjector(
                FaultSpec.uniform(chaos_rate, seed=chaos_seed, hang_s=hang_s)
            ),
        )
        batch = chaos_engine.run_cells(cells, partial=True)
        rewarm = chaos_engine.run_cells(cells, partial=True)
    holes = list(batch.holes)
    seen = {hole.key for hole in holes}
    holes += [hole for hole in rewarm.holes if hole.key not in seen]
    divergent = sum(
        1
        for chaos_results in (batch.results, rewarm.results)
        for baseline, chaotic in zip(clean, chaos_results)
        if chaotic is not None
        and pickle.dumps((baseline.timed, baseline.oom))
        != pickle.dumps((chaotic.timed, chaotic.oom))
    )
    return ChaosDrill(
        cells=len(cells),
        holes=holes,
        divergent=divergent,
        stats=chaos_engine.stats,
        chaos_rate=chaos_rate,
    )


@dataclass(frozen=True)
class SupervisedSweep:
    """Outcome of :func:`supervised_sweep`: what ran, what was refused.

    ``result`` is the assembled :class:`SuiteLbo`, or ``None`` when so
    much was refused that no benchmark had a single complete group;
    ``holes`` lists every incomplete cell with its typed ``reason``
    (``budget``/``breaker``/``drained`` for supervised refusals,
    ``gave_up``/``timeout`` for cells that ran and failed); ``stats`` is
    the engine delta for this sweep; ``drained`` reports whether a
    graceful shutdown was in progress when the sweep ended.
    """

    cells: int
    result: Optional[SuiteLbo]
    holes: List[Hole]
    stats: EngineStats
    drained: bool = False

    @property
    def complete(self) -> bool:
        """True when every cell produced a result."""
        return not self.holes


def supervised_sweep(
    specs: Union[WorkloadSpec, Sequence[WorkloadSpec]],
    collectors: Sequence[str] = COLLECTOR_NAMES,
    multiples: Sequence[float] = (2.0, 3.0),
    config: RunConfig = DEFAULT_CONFIG,
    engine: Optional[ExecutionEngine] = None,
    supervisor: Optional[Supervisor] = None,
    budget_s: Optional[float] = None,
    breaker_threshold: Optional[int] = None,
) -> SupervisedSweep:
    """Run an LBO-style sweep under a :class:`~repro.resilience.Supervisor`
    (``chopin lbo --budget/--breaker-threshold``).

    The sweep always runs in partial mode — a supervised refusal is a
    typed hole to report, not an error to die on — and assembly
    tolerates total refusal (a budget of a few milliseconds holes every
    cell; ``result`` is then ``None`` instead of an
    ``OutOfMemoryError`` escaping from an empty LBO table).  Cells that
    do run are bit-identical to an unsupervised sweep; refused cells are
    absent from the cache, so a follow-up run with the same
    ``--cache-dir`` executes exactly the missing cells.
    """
    if supervisor is None:
        supervisor = Supervisor(budget_s=budget_s, breaker_threshold=breaker_threshold)
    plan = plan_lbo(specs, collectors, multiples, config)
    engine = engine if engine is not None else ExecutionEngine()
    engine.attach_supervisor(supervisor)
    before = replace(engine.stats)
    batch = engine.run_cells(plan.cells(), partial=True)
    try:
        result: Optional[SuiteLbo] = _assemble_lbo(plan, batch.results)
    except OutOfMemoryError:
        result = None
    return SupervisedSweep(
        cells=len(batch.results),
        result=result,
        holes=list(batch.holes),
        stats=engine.stats.minus(before),
        drained=supervisor.draining,
    )


def heap_timeseries(
    spec: WorkloadSpec,
    collector: str = "G1",
    heap_multiple: float = 2.0,
    config: RunConfig = DEFAULT_CONFIG,
    engine: Optional[ExecutionEngine] = None,
) -> List[Tuple[float, float]]:
    """Post-GC heap occupancy over time (the appendix heap graphs):
    DaCapo's default configuration, G1 at 2x the minimum heap.

    Only the first invocation's timed iteration is needed, so exactly one
    cell is submitted (the legacy path simulated every invocation and
    discarded all but the first — same result, less work).

    The series is read from the GC log, so auto fidelity resolves to the
    full tier; an explicit ``fidelity="aggregate"`` config raises
    :class:`~repro.jvm.telemetry.FidelityError`.
    """
    engine = engine if engine is not None else ExecutionEngine()
    if config.fidelity is None:
        config = replace(config, fidelity=FIDELITY_FULL)
    cell = Cell(
        spec=spec,
        collector=resolve_collector(collector),
        heap_mb=spec.heap_mb_for(heap_multiple),
        invocation=0,
        config=config,
    )
    result = engine.run_cells([cell])[0]
    if result.oom is not None:
        raise OutOfMemoryError(result.oom)
    return result.timed.require_telemetry().heap_after_gc_series()
