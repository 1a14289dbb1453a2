"""The simulated JVM: mutator, heap, and collector on a shared timeline.

One :func:`simulate_iteration` call plays a single benchmark iteration: the
mutator makes progress and allocates, the collector interjects cycles, and
the telemetry records everything.  :func:`simulate_run` strings iterations
together the way the harness runs DaCapo (``-n 5``, timing the last), with
JIT warmup modelled as a decaying slowdown and heap leakage carried across
iterations.

Accounting follows the paper's Recommendation O2 exactly: every run yields
both a wall-clock time and a task clock (total CPU over all threads, the
simulator's TASK_CLOCK analogue).

Simulation runs at one of two **fidelity tiers**
(:mod:`repro.jvm.telemetry`): ``"full"`` carries per-event telemetry and a
:class:`~repro.jvm.timeline.Timeline` on each result; ``"aggregate"``
keeps only the headline scalars and skips event materialization entirely
— much faster, and bit-identical on every scalar.

The loop step (trigger query, plan, cycle) is the innermost loop of every
cold sweep, so it keeps these invariants:

- one team sizing per heap state: a concurrent collector sizes each
  trigger query and each plan once (``ConcurrentCollector._size_cycle``);
- per-run constants are built once, at collector construction — among
  them the concurrent rate per integer team size, which
  :meth:`_IterationSim._execute_concurrent` reads instead of recomputing
  the parallel speedup — and the mutator dilation is memoized per team
  size for the iteration;
- pause segments that cannot change within a run are immutable and
  shared between plans;
- every float comes from the same operations in the same order as the
  plain formulas, so results are bit-identical to them
  (``tests/test_simulator.py`` pins a golden digest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.rng import generator_for
from repro.jvm.collectors.base import Collector, CyclePlan, GcTuning, team_rates
from repro.jvm.cpu import DEFAULT_MACHINE, Machine
from repro.jvm.environment import BASELINE_ENVIRONMENT, EnvironmentProfile
from repro.jvm.heap import Heap, OutOfMemoryError
from repro.jvm.telemetry import (
    FIDELITY_FULL,
    FidelityError,
    Telemetry,
    make_telemetry,
)
from repro.jvm.timeline import Timeline
from repro.observability import RecorderLike
from repro.observability import events as flight

#: Hard cap on GC cycles per iteration: a run that needs more than this is
#: thrashing and is treated as unable to complete in the given heap.
MAX_CYCLES_PER_ITERATION = 200_000


@dataclass(frozen=True)
class IterationResult:
    """Everything measured about one benchmark iteration.

    All headline scalars are first-class fields whatever the fidelity
    tier.  ``timeline`` and ``telemetry`` are full-fidelity detail:
    ``None`` on aggregate-tier results, where only the scalars exist.
    Consumers that need the detail go through :meth:`require_timeline` /
    :meth:`require_telemetry` so an aggregate result fails with a clear
    upgrade message instead of an ``AttributeError``.
    """

    wall_s: float
    mutator_cpu_s: float
    gc_pause_cpu_s: float
    gc_concurrent_cpu_s: float
    stw_wall_s: float
    stall_wall_s: float
    gc_count: int
    allocated_mb: float
    #: Long-lived live set at iteration end (heap introspection; the basis
    #: of the leakage statistic GLK).
    live_end_mb: float
    #: Time-averaged heap occupancy (the paper's area-under-the-curve
    #: net-footprint measure, Section 4.2) — a headline scalar, so it is
    #: carried at every fidelity tier.
    avg_footprint_mb: float = 0.0
    #: Which tier this iteration was simulated at.
    fidelity: str = FIDELITY_FULL
    timeline: Optional[Timeline] = None
    telemetry: Optional[Telemetry] = None

    def require_timeline(self) -> Timeline:
        """The iteration's :class:`Timeline`, or a :class:`FidelityError`
        explaining that the run must be re-simulated at full fidelity."""
        if self.timeline is None:
            raise FidelityError(
                "this result was simulated at fidelity='aggregate' and carries "
                "no timeline; re-run with fidelity='full' to record per-event "
                "detail"
            )
        return self.timeline

    def require_telemetry(self) -> Telemetry:
        """The iteration's full :class:`Telemetry`, or a
        :class:`FidelityError` explaining the needed upgrade."""
        if self.telemetry is None:
            raise FidelityError(
                "this result was simulated at fidelity='aggregate' and carries "
                "no per-event telemetry; re-run with fidelity='full' to record "
                "pauses, spans, and the GC log"
            )
        return self.telemetry

    @property
    def gc_cpu_s(self) -> float:
        return self.gc_pause_cpu_s + self.gc_concurrent_cpu_s

    @property
    def task_clock_s(self) -> float:
        """Total CPU over all threads — the Linux perf TASK_CLOCK analogue."""
        return self.mutator_cpu_s + self.gc_cpu_s

    @property
    def distilled_wall_s(self) -> float:
        """Wall time minus easily-attributable STW time (LBO numeratorless
        view: the conservative approximation to app-only cost)."""
        return self.wall_s - self.stw_wall_s

    @property
    def distilled_task_s(self) -> float:
        """Task clock minus attributable GC CPU (pauses + GC threads)."""
        return self.task_clock_s - self.gc_pause_cpu_s - self.gc_concurrent_cpu_s


@dataclass(frozen=True)
class RunResult:
    """A full invocation: several iterations in one simulated JVM."""

    iterations: List[IterationResult]
    #: Reachable footprint observed after each forced inter-iteration full
    #: GC (populated only when ``force_full_gc_between_iterations`` is on).
    forced_gc_footprints_mb: List[float] = field(default_factory=list)

    @property
    def timed(self) -> IterationResult:
        """The measured iteration — the last, per the paper's methodology."""
        return self.iterations[-1]


@dataclass
class _MutatorState:
    """Progress bookkeeping for the iteration in flight."""

    target_progress_s: float
    alloc_rate_mb_s: float  # allocation per second of mutator progress
    progress_s: float = 0.0
    wall_s: float = 0.0


def warmup_factor(iteration: int, spec) -> float:
    """Per-iteration slowdown from cold JIT/classloading.

    Iteration 1 runs ``spec.warmup_excess`` slower; the excess decays so the
    workload is within 1.5 % of peak by iteration ``spec.warmup_iterations``
    (the PWU nominal statistic) — matching the paper's observation that
    ``-n 5`` suffices for default-sized workloads.
    """
    if iteration < 1:
        raise ValueError("iterations are numbered from 1")
    excess = spec.warmup_excess
    if excess <= 0.015:
        return 1.0
    pwu = max(spec.warmup_iterations, 1)
    if pwu == 1:
        return 1.0 if iteration > 1 else 1.0 + excess
    decay = math.log(excess / 0.015) / (pwu - 1)
    return 1.0 + excess * math.exp(-decay * (iteration - 1))


class _IterationSim:
    """Runs one iteration; split out of the function for readability."""

    def __init__(
        self,
        spec,
        collector: Collector,
        heap: Heap,
        machine: Machine,
        rng: np.random.Generator,
        speed_factor: float,
        duration_scale: float,
        fidelity: Optional[str] = None,
    ):
        self.spec = spec
        self.collector = collector
        self.heap = heap
        self.machine = machine
        self.rng = rng
        self.telemetry = make_telemetry(fidelity)
        intrinsic = spec.execution_time_s * duration_scale * speed_factor
        # Run-to-run noise: the PSD nominal statistic is the relative
        # standard deviation among invocations at peak performance.
        noise = float(np.exp(rng.normal(0.0, spec.run_noise)))
        target = intrinsic * collector.mutator_tax * noise
        # Allocation volume is a property of the workload, not the
        # collector: accrue it against untaxed progress.
        alloc_rate = spec.alloc_rate_mb_s / collector.mutator_tax
        self.state = _MutatorState(target_progress_s=target, alloc_rate_mb_s=alloc_rate)
        # The heap persists across iterations; report per-iteration allocation.
        self._alloc_at_start_mb = heap.allocated_total_mb
        # The collector's rate table is built for its own machine; a
        # caller simulating it on another machine gets that machine's.
        self._team_rates = (
            collector._team_rates
            if machine is collector.machine
            else team_rates(machine, collector.tuning)
        )
        #: Unpaced mutator progress rate (1 / dilation) per concurrent
        #: team size, filled on first use.
        self._progress_rates = {}

    # -- helpers -------------------------------------------------------
    def _run_mutator(self, progress_s: float) -> None:
        """Advance the mutator outside any GC cycle (rate 1, no dilation).

        Allocation bypasses :meth:`Heap.allocate`'s free-space check: the
        caller derived ``progress_s`` from the free space itself (budget =
        free - trigger, trigger >= 0), so the allocation fits by
        construction.
        """
        state = self.state
        heap = self.heap
        mb = progress_s * state.alloc_rate_mb_s
        heap.young_mb += mb
        heap.allocated_total_mb += mb
        state.progress_s += progress_s
        state.wall_s += progress_s

    def _execute_pauses(self, segments, cycle_kind: str) -> None:
        telem = self.telemetry
        if telem.wants_events:
            for seg in segments:
                telem.record_pause(
                    start=self.state.wall_s,
                    duration=seg.duration_s,
                    kind=f"{cycle_kind}:{seg.kind}",
                    workers=seg.workers,
                )
                self.state.wall_s += seg.duration_s
        else:
            # Aggregate tier: same per-segment accumulation order as
            # record_pause (the scalar contract is bit-identical floats),
            # without the call or the event object.
            state = self.state
            for seg in segments:
                duration = seg.duration_s
                telem.pause_cpu_s += duration * seg.workers
                telem.stw_wall_s += duration
                state.wall_s += duration

    def _execute_concurrent(self, plan: CyclePlan) -> None:
        """Run the concurrent phase: GC works for ``duration`` wall seconds
        while the mutator runs diluted, paced, or stalled beside it."""
        state = self.state
        workers = plan.concurrent_threads
        rates = self._team_rates
        team = int(workers)
        duration = plan.concurrent_work_mb / (
            rates[team] if team < len(rates) else rates[-1]
        )
        if duration <= 0:
            return
        progress_rate = self._progress_rates.get(workers)
        if progress_rate is None:
            contention = self.machine.mutator_dilation(self.spec.cpu_cores, workers)
            progress_rate = self._progress_rates[workers] = 1.0 / contention
        alloc_rate = state.alloc_rate_mb_s
        if plan.pace_alloc_to_mb_s is not None and alloc_rate > 0:
            paced = plan.pace_alloc_to_mb_s / alloc_rate
            progress_rate = min(progress_rate, paced)
        start = state.wall_s

        max_by_space = self.heap.free_mb / alloc_rate if alloc_rate > 0 else math.inf
        remaining = state.target_progress_s - state.progress_s
        max_by_work = remaining if remaining > 0.0 else 0.0
        achievable = progress_rate * duration
        progress = min(achievable, max_by_space, max_by_work)
        run_wall = progress / progress_rate if progress_rate > 0 else 0.0

        finished_workload = progress >= max_by_work - 1e-12
        span_end = start + (run_wall if finished_workload else duration)
        dilation = 1.0 / progress_rate if progress_rate > 0 else 1.0
        telem = self.telemetry
        if telem.wants_events:
            telem.record_concurrent(
                start=start, end=span_end, gc_threads=workers, dilation=max(1.0, dilation)
            )
        else:
            # Same float expression as ConcurrentSpan.cpu_seconds, inlined.
            telem.concurrent_cpu_s += (span_end - start) * workers
        self.heap.allocate(progress * alloc_rate)
        state.progress_s += progress
        if finished_workload:
            state.wall_s = start + run_wall
            return
        if run_wall < duration:
            # Heap exhausted mid-cycle: allocation stall until the cycle ends.
            telem.record_stall(start + run_wall, duration - run_wall)
        state.wall_s = start + duration

    def _apply_heap_effect(self, plan: CyclePlan, young_at_start: float) -> float:
        heap = self.heap
        before = heap.live_mb + heap.young_mb  # occupied_mb, inlined
        if plan.full_live_target_mb is not None:
            # Allocation performed during a concurrent cycle survives it as
            # floating garbage; STW full collections have none.
            floating = heap.young_mb - young_at_start
            if floating < 0.0:
                floating = 0.0
            heap.live_mb = min(plan.full_live_target_mb, before)
            heap.young_mb = floating
            heap.live_mb = min(heap.live_mb, heap.usable_mb - floating)
        else:
            # Inline of Heap.collect_young minus revalidating the plan's
            # survival/promotion constants (CyclePlan carries the same
            # values every cycle); the accounting floats are identical.
            survivors = heap.young_mb * plan.survival_rate
            promoted = survivors * plan.promotion_fraction
            heap.young_mb = survivors - promoted
            heap.live_mb += promoted
            if plan.old_reclaim_mb > 0.0:
                floor = self.collector.live_footprint_mb()
                reduced = heap.live_mb - plan.old_reclaim_mb
                heap.live_mb = floor if floor > reduced else reduced
        return before - (heap.live_mb + heap.young_mb)

    def _execute_cycle(self, plan: CyclePlan) -> float:
        heap = self.heap
        heap_before = heap.live_mb + heap.young_mb  # occupied_mb, inlined
        started = self.state.wall_s
        young_at_start = heap.young_mb
        self._execute_pauses(plan.pre_pauses, plan.kind)
        if plan.concurrent_work_mb > 0:
            self._execute_concurrent(plan)
        if plan.post_pauses:
            self._execute_pauses(plan.post_pauses, plan.kind)
        reclaimed = self._apply_heap_effect(plan, young_at_start)
        telem = self.telemetry
        if telem.wants_events:
            telem.record_collection(
                time=started,
                kind=plan.kind,
                pause_s=sum(p.duration_s for p in plan.pre_pauses + plan.post_pauses),
                reclaimed_mb=reclaimed,
                heap_before_mb=heap_before,
                heap_after_mb=heap.live_mb + heap.young_mb,
            )
        else:
            # Inline of AggregateTelemetry.record_collection (same floats,
            # same order), saving a call per GC cycle; kind/pause_s only
            # exist on GC-log entries, which this tier never materializes.
            telem.gc_count += 1
            dt = started - telem._footprint_prev_time
            if dt < 0.0:
                dt = 0.0
            telem._footprint_area += dt * (telem._footprint_prev_occ + heap_before) / 2.0
            telem._footprint_prev_time = started
            telem._footprint_prev_occ = heap.live_mb + heap.young_mb
        self.collector.notify_cycle_complete(self.heap, plan)
        return reclaimed

    # -- main loop -----------------------------------------------------
    def run(self) -> IterationResult:
        state = self.state
        heap = self.heap
        collector = self.collector
        # Constant for the iteration (set once in __init__), and the
        # done threshold, hoisted out of the hot loop.
        alloc_rate = state.alloc_rate_mb_s
        target = state.target_progress_s
        done_at = target - 1e-12
        unproductive = 0
        cycles = 0
        while state.progress_s < done_at:
            trigger_free = collector.trigger_free_mb(heap)
            budget_mb = heap.free_mb - trigger_free
            if budget_mb > 0 and alloc_rate > 0:
                progress_to_trigger = budget_mb / alloc_rate
                # Positive: progress is below done_at, hence below target.
                remaining = target - state.progress_s
                self._run_mutator(
                    progress_to_trigger if progress_to_trigger < remaining else remaining
                )
                if state.progress_s >= done_at:
                    break
            elif alloc_rate <= 0:
                # Non-allocating remainder: run to completion, no GC needed.
                self._run_mutator(target - state.progress_s)
                break
            cycles += 1
            if cycles > MAX_CYCLES_PER_ITERATION:
                raise OutOfMemoryError(
                    f"{self.spec.name}: thrashing — more than "
                    f"{MAX_CYCLES_PER_ITERATION} GC cycles in one iteration"
                )
            reclaimed = self._execute_cycle(collector.plan_cycle(heap))
            if reclaimed < 0.25 and heap.free_mb < 0.5:
                unproductive += 1
                if unproductive >= 3:
                    raise OutOfMemoryError(
                        f"{self.spec.name}: heap of {heap.capacity_mb:.0f} MB "
                        f"cannot make progress with {collector.NAME}"
                    )
            else:
                unproductive = 0
        self.telemetry.record_background_cpu(
            collector.background_concurrent_cpu_s(heap.allocated_total_mb, state.wall_s)
        )
        return self._result()

    def _result(self) -> IterationResult:
        state = self.state
        telem = self.telemetry
        mutator_cpu = state.progress_s * self.spec.cpu_cores
        full = telem.wants_events
        return IterationResult(
            wall_s=state.wall_s,
            mutator_cpu_s=mutator_cpu,
            gc_pause_cpu_s=telem.pause_cpu_s,
            gc_concurrent_cpu_s=telem.concurrent_cpu_s,
            stw_wall_s=telem.stw_wall_s,
            stall_wall_s=telem.stall_wall_s,
            gc_count=telem.gc_count,
            allocated_mb=self.heap.allocated_total_mb - self._alloc_at_start_mb,
            live_end_mb=self.heap.live_mb,
            avg_footprint_mb=(
                telem.average_footprint_mb(state.wall_s) if state.wall_s > 0 else 0.0
            ),
            fidelity=telem.fidelity,
            timeline=telem.to_timeline(end_time=state.wall_s) if full else None,
            telemetry=telem if full else None,
        )


def record_iteration(
    recorder: RecorderLike,
    spec,
    collector_name: str,
    iteration: int,
    start_ts: float,
    result: IterationResult,
    track: int = 0,
) -> None:
    """Emit one iteration's flight-recorder events at offset ``start_ts``.

    Purely observational: events are derived from the iteration's
    telemetry after the fact, in simulated time, so recording can never
    perturb the simulation (and the no-op :class:`NullRecorder` makes it
    free when disabled).  The iteration span comes first, then its nested
    GC pauses, concurrent spans, and allocation stalls, then the
    estimated JIT warmup overhead (the share of the iteration's wall time
    attributable to the warmup slowdown factor).

    Requires a full-fidelity ``result`` (the events *are* the per-event
    telemetry); an aggregate-tier result raises
    :class:`~repro.jvm.telemetry.FidelityError` unless the recorder is
    disabled, in which case there is nothing to emit anyway.
    """
    if not recorder.enabled:
        return
    telem = result.require_telemetry()
    recorder.emit(
        flight.IterationSpan(
            ts=start_ts,
            track=track,
            dur=result.wall_s,
            index=iteration,
            benchmark=spec.name,
            collector=collector_name,
        )
    )
    for pause in telem.pauses:
        recorder.emit(
            flight.GcPause(
                ts=start_ts + pause.start, track=track, dur=pause.duration, kind=pause.kind
            )
        )
    for span in telem.spans:
        recorder.emit(
            flight.ConcurrentSpan(
                ts=start_ts + span.start,
                track=track,
                dur=span.duration,
                gc_threads=span.gc_threads,
                dilation=span.dilation,
            )
        )
    for stall in telem.stalls:
        recorder.emit(
            flight.AllocationStall(
                ts=start_ts + stall.start, track=track, dur=stall.duration
            )
        )
    factor = warmup_factor(iteration, spec)
    if factor > 1.0:
        recorder.emit(
            flight.CompileWarmup(
                ts=start_ts,
                track=track,
                dur=result.wall_s * (1.0 - 1.0 / factor),
                iteration=iteration,
                factor=factor,
            )
        )


def collector_label(collector) -> str:
    """Display/seed label for a collector given by name or by class."""
    return collector if isinstance(collector, str) else collector.NAME


def make_collector(
    collector,
    spec,
    machine: Machine = DEFAULT_MACHINE,
    tuning: Optional[GcTuning] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Instantiate a collector for a workload.

    ``collector`` is either a registered name or a ``Collector`` subclass
    (the latter lets experiments run ablated variants without touching the
    registry).
    """
    from repro.jvm.collectors import COLLECTORS, resolve_collector

    if isinstance(collector, str):
        cls = COLLECTORS[resolve_collector(collector)]
    elif isinstance(collector, type) and issubclass(collector, Collector):
        cls = collector
    else:
        raise TypeError(f"collector must be a name or Collector subclass, got {collector!r}")
    return cls(
        spec, machine, tuning or GcTuning(), rng or generator_for(cls.NAME, spec.name)
    )


def simulate_iteration(
    spec,
    collector: Collector,
    heap: Heap,
    machine: Machine = DEFAULT_MACHINE,
    rng: Optional[np.random.Generator] = None,
    speed_factor: float = 1.0,
    duration_scale: float = 1.0,
    fidelity: Optional[str] = None,
) -> IterationResult:
    """Simulate one benchmark iteration in an existing heap.

    ``fidelity`` selects the telemetry tier: ``"full"`` (default) records
    per-event detail; ``"aggregate"`` keeps only headline scalars —
    bit-identical on every scalar, substantially faster.
    """
    rng = rng if rng is not None else generator_for(spec.name, collector.NAME)
    sim = _IterationSim(
        spec, collector, heap, machine, rng, speed_factor, duration_scale, fidelity
    )
    return sim.run()


def simulate_run(
    spec,
    collector_name: str,
    heap_mb: float,
    iterations: Optional[int] = None,
    invocation: int = 0,
    machine: Machine = DEFAULT_MACHINE,
    tuning: Optional[GcTuning] = None,
    duration_scale: float = 1.0,
    environment: EnvironmentProfile = BASELINE_ENVIRONMENT,
    force_full_gc_between_iterations: bool = False,
    recorder: Optional[RecorderLike] = None,
    fidelity: Optional[str] = None,
) -> RunResult:
    """Simulate one JVM invocation: ``iterations`` back-to-back iterations.

    ``force_full_gc_between_iterations`` is the harness analogue of calling
    ``System.gc()`` at iteration boundaries — used by leakage measurement
    to observe the reachable footprint without floating garbage.

    ``heap_mb`` is the ``-Xms``/``-Xmx`` setting.  ``environment`` selects
    the execution-environment configuration (memory speed, LLC, frequency,
    compiler — Section 6.1.3); the default is the paper's baseline.
    Raises :class:`OutOfMemoryError` if the workload cannot run in that
    heap with that collector — the signal the minimum-heap search relies
    on.

    ``recorder`` is an optional flight recorder
    (:class:`repro.observability.Recorder`); when given, each iteration
    emits span events (iteration, GC pauses, concurrent work, stalls,
    warmup) in simulated time.  Recording is observational only — results
    are bit-identical with or without it.

    ``fidelity`` selects the telemetry tier for every iteration:
    ``"full"`` (the default when ``None``) attaches a timeline and
    per-event telemetry to each :class:`IterationResult`;
    ``"aggregate"`` carries headline scalars only — bit-identical on
    every scalar, substantially faster.  An enabled flight recorder
    needs the events, so it auto-upgrades ``"aggregate"`` to ``"full"``.
    """
    if iterations is None:
        iterations = spec.default_iterations
    if iterations < 1:
        raise ValueError("need at least one iteration")
    rng = generator_for(spec.name, collector_label(collector_name), f"{heap_mb:.3f}", invocation)
    collector = make_collector(collector_name, spec, machine, tuning, rng)
    environment_factor = environment.execution_time_factor(spec.sensitivities)

    heap = Heap(capacity_mb=heap_mb, reserve_fraction=collector.RESERVE_FRACTION)
    live = collector.live_footprint_mb()
    heap.require_fits(live + max(0.5, 0.04 * live))
    heap.live_mb = live

    recorder = recorder if recorder is not None else flight.NullRecorder()
    if recorder.enabled:
        # The flight recorder replays per-event telemetry; aggregate runs
        # have none, so recording forces the full tier.
        fidelity = FIDELITY_FULL
    results = []
    footprints = []
    run_clock = 0.0
    for i in range(1, iterations + 1):
        result = simulate_iteration(
            spec,
            collector,
            heap,
            machine,
            rng,
            speed_factor=warmup_factor(i, spec) * environment_factor,
            duration_scale=duration_scale,
            fidelity=fidelity,
        )
        results.append(result)
        record_iteration(
            recorder, spec, collector_label(collector_name), i, run_clock, result
        )
        run_clock += result.wall_s
        # Memory leakage across iterations (the GLK nominal statistic is
        # percent growth over ten iterations).  Leaked memory is reachable:
        # it joins the collector's live footprint and no collection can
        # reclaim it.
        if spec.leak_rate > 0:
            leak = live * spec.leak_rate
            collector.extra_live_mb += leak
            heap.live_mb = min(heap.live_mb + leak, heap.usable_mb)
        if force_full_gc_between_iterations:
            heap.collect_full(min(collector.live_footprint_mb(), heap.usable_mb))
            footprints.append(heap.occupied_mb)
    return RunResult(iterations=results, forced_gc_footprints_mb=footprints)
