"""Collector models: taxes, footprints, triggers, and cycle plans."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rng import generator_for
from repro.jvm import batch as batch_mod
from repro.jvm.collectors import COLLECTORS, COLLECTOR_NAMES
from repro.jvm.collectors.base import CyclePlan, GcTuning, PauseSegment
from repro.jvm.cpu import DEFAULT_MACHINE, Machine
from repro.jvm.heap import Heap
from repro.workloads import registry


def build(name, bench="lusearch"):
    spec = registry.workload(bench)
    return COLLECTORS[name](spec, DEFAULT_MACHINE, GcTuning(), generator_for("t", name))


class TestRegistry:
    def test_all_five_present(self):
        assert set(COLLECTOR_NAMES) == {"Serial", "Parallel", "G1", "Shenandoah", "ZGC"}

    def test_ordered_by_year(self):
        years = [COLLECTORS[n].YEAR for n in COLLECTOR_NAMES]
        assert years == sorted(years)
        assert years == [1998, 2005, 2009, 2014, 2018]

    def test_newer_collectors_pay_higher_mutator_tax(self):
        # Barrier complexity grew with concurrency: Serial's card table up
        # to Shenandoah's load-reference barrier.
        assert COLLECTORS["Serial"].MUTATOR_TAX < COLLECTORS["G1"].MUTATOR_TAX
        assert COLLECTORS["G1"].MUTATOR_TAX < COLLECTORS["Shenandoah"].MUTATOR_TAX
        assert COLLECTORS["Parallel"].MUTATOR_TAX < COLLECTORS["ZGC"].MUTATOR_TAX

    def test_only_zgc_lacks_compressed_oops(self):
        lacking = [n for n in COLLECTOR_NAMES if not COLLECTORS[n].COMPRESSED_OOPS]
        assert lacking == ["ZGC"]


class TestFootprint:
    def test_compressed_collectors_have_unit_factor(self):
        for name in ("Serial", "Parallel", "G1", "Shenandoah"):
            assert build(name).footprint_factor() == 1.0

    def test_zgc_inflates_by_gmu_ratio(self):
        spec = registry.workload("biojava")  # GMU/GMD = 183/93
        zgc = COLLECTORS["ZGC"](spec, DEFAULT_MACHINE, GcTuning(), generator_for("z"))
        assert zgc.footprint_factor() == pytest.approx(183 / 93)

    def test_zgc_min_heap_larger(self):
        assert build("ZGC").min_heap_mb() > build("Serial").min_heap_mb()

    def test_min_heap_fits_live(self):
        for name in COLLECTOR_NAMES:
            c = build(name)
            assert c.min_heap_mb() > c.live_footprint_mb()


class TestSerialParallel:
    def test_serial_single_worker(self):
        assert build("Serial").stw_workers() == 1

    def test_parallel_team(self):
        assert build("Parallel").stw_workers() == 16

    def test_young_plan_when_room(self):
        c = build("Serial")
        heap = Heap(capacity_mb=100.0, live_mb=c.live_footprint_mb())
        heap.allocate(20.0)
        plan = c.plan_cycle(heap)
        assert plan.kind == "young"
        assert plan.survival_rate == c.spec.survival_rate

    def test_full_plan_when_old_full(self):
        c = build("Serial")
        heap = Heap(capacity_mb=100.0, live_mb=95.0)
        plan = c.plan_cycle(heap)
        assert plan.kind == "full"
        assert plan.full_live_target_mb == pytest.approx(c.live_footprint_mb())

    def test_parallel_pause_shorter_but_costlier(self):
        serial, parallel = build("Serial"), build("Parallel")
        s_pause = serial.stw_pause_for(100.0, 1000.0, "x")
        p_pause = parallel.stw_pause_for(100.0, 1000.0, "x")
        assert p_pause.duration_s < s_pause.duration_s
        # CPU = duration * workers: Parallel burns more total CPU.
        assert p_pause.duration_s * p_pause.workers > s_pause.duration_s * s_pause.workers

    def test_trigger_leaves_eden_headroom(self):
        c = build("Serial")
        heap = Heap(capacity_mb=100.0, live_mb=c.live_footprint_mb())
        trigger = c.trigger_free_mb(heap)
        assert 0.0 <= trigger < heap.free_mb


class TestG1:
    def test_mark_then_mixed_state_machine(self):
        c = build("G1", "h2")
        heap = Heap(capacity_mb=c.spec.minheap_mb * 1.5, live_mb=c.live_footprint_mb())
        heap.allocate(10.0)
        # Old occupancy (0.8 * GMD) exceeds IHOP (0.45 * usable at 1.5x
        # GMD): marking starts.
        plan = c.plan_cycle(heap)
        assert plan.kind == "concurrent-mark"
        c.notify_cycle_complete(heap, plan)
        heap.live_mb += 30.0  # promoted old garbage accumulated since
        follow_up = c.plan_cycle(heap)
        assert follow_up.kind == "mixed"
        assert follow_up.old_reclaim_mb > 0.0

    def test_mixed_count_decrements(self):
        c = build("G1", "h2")
        heap = Heap(capacity_mb=c.spec.minheap_mb * 1.5, live_mb=c.live_footprint_mb())
        mark = c.plan_cycle(heap)
        c.notify_cycle_complete(heap, mark)
        for _ in range(c.MIXED_PAUSE_COUNT):
            plan = c.plan_cycle(heap)
            assert plan.kind == "mixed"
            c.notify_cycle_complete(heap, plan)

    def test_young_when_below_ihop(self):
        c = build("G1", "lusearch")
        heap = Heap(capacity_mb=c.spec.minheap_mb * 6, live_mb=c.live_footprint_mb())
        heap.allocate(5.0)
        assert c.plan_cycle(heap).kind == "young"

    def test_full_gc_fallback(self):
        c = build("G1")
        heap = Heap(capacity_mb=100.0, live_mb=93.0)
        assert c.plan_cycle(heap).kind == "full"

    def test_marking_accumulates_background_cpu(self):
        c = build("G1", "h2")
        heap = Heap(capacity_mb=c.spec.minheap_mb * 1.5, live_mb=c.live_footprint_mb())
        before = c.background_concurrent_cpu_s(0.0, 0.0)
        c.plan_cycle(heap)  # concurrent-mark
        after = c.background_concurrent_cpu_s(0.0, 0.0)
        assert after > before

    def test_refinement_scales_with_allocation(self):
        c = build("G1")
        assert c.background_concurrent_cpu_s(2000.0, 1.0) > c.background_concurrent_cpu_s(100.0, 1.0)


class TestConcurrentCollectors:
    @pytest.mark.parametrize("name", ["Shenandoah", "ZGC"])
    def test_plans_are_concurrent_full_style(self, name):
        c = build(name)
        heap = Heap(capacity_mb=c.spec.minheap_mb * 3, live_mb=c.live_footprint_mb())
        heap.allocate(1.0)
        plan = c.plan_cycle(heap)
        assert plan.kind == "concurrent"
        assert plan.concurrent_work_mb > 0
        assert plan.full_live_target_mb == pytest.approx(c.live_footprint_mb())

    def test_shenandoah_paces_zgc_stalls(self):
        shen, zgc = build("Shenandoah"), build("ZGC")
        heap_s = Heap(capacity_mb=shen.spec.minheap_mb * 3, live_mb=shen.live_footprint_mb())
        heap_z = Heap(capacity_mb=zgc.spec.minheap_mb * 3, live_mb=zgc.live_footprint_mb())
        assert shen.plan_cycle(heap_s).pace_alloc_to_mb_s is not None
        assert zgc.plan_cycle(heap_z).pace_alloc_to_mb_s is None

    def test_adaptive_workers_scale_with_pressure(self):
        # lusearch allocates ~22 GB/s: ZGC's team must grow beyond default
        # (Shenandoah's default team already sits at its cap — it throttles
        # with the pacer instead of expanding).
        hot = build("ZGC", "lusearch")
        heap = Heap(capacity_mb=hot.spec.minheap_mb * 2, live_mb=hot.live_footprint_mb())
        assert hot.concurrent_workers(heap) > hot.default_concurrent_workers()

        for name in ("Shenandoah", "ZGC"):
            cold = build(name, "jme")  # jme allocates ~51 MB/s
            heap2 = Heap(capacity_mb=cold.spec.minheap_mb * 4, live_mb=cold.live_footprint_mb())
            assert cold.concurrent_workers(heap2) == cold.default_concurrent_workers()

    @pytest.mark.parametrize("name", ["Shenandoah", "ZGC"])
    def test_workers_capped_at_cores(self, name):
        c = build(name, "lusearch")
        heap = Heap(capacity_mb=c.spec.minheap_mb * 1.1, live_mb=c.live_footprint_mb())
        assert c.concurrent_workers(heap) <= DEFAULT_MACHINE.cores

    @pytest.mark.parametrize("name", ["Shenandoah", "ZGC"])
    def test_trigger_within_headroom(self, name):
        c = build(name)
        heap = Heap(capacity_mb=c.spec.minheap_mb * 4, live_mb=c.live_footprint_mb())
        headroom = heap.usable_mb - c.live_footprint_mb()
        trigger = c.trigger_free_mb(heap)
        assert 0.0 < trigger <= 0.9 * headroom + 1e-9

    def test_zgc_pauses_are_tiny(self):
        c = build("ZGC")
        heap = Heap(capacity_mb=c.spec.minheap_mb * 3, live_mb=c.live_footprint_mb())
        plan = c.plan_cycle(heap)
        for pause in plan.pre_pauses + plan.post_pauses:
            assert pause.duration_s < 0.001


class TestCyclePlanValidation:
    def test_needs_exactly_one_accounting_mode(self):
        with pytest.raises(ValueError):
            CyclePlan(kind="x")  # neither young nor full
        with pytest.raises(ValueError):
            CyclePlan(kind="x", survival_rate=0.1, promotion_fraction=0.1, full_live_target_mb=1.0)

    def test_young_needs_promotion(self):
        with pytest.raises(ValueError):
            CyclePlan(kind="x", survival_rate=0.1)

    def test_concurrent_needs_threads(self):
        with pytest.raises(ValueError):
            CyclePlan(kind="x", full_live_target_mb=1.0, concurrent_work_mb=5.0)

    def test_pause_segment_validation(self):
        with pytest.raises(ValueError):
            PauseSegment(duration_s=-1.0, workers=1.0, kind="x")
        with pytest.raises(ValueError):
            PauseSegment(duration_s=1.0, workers=0.0, kind="x")


def reference_workers(c, heap):
    """The adaptive team formula, written out plainly: enough workers
    that the cycle finishes within the allocation budget, within
    [default, maximum] team size."""
    base = c.default_concurrent_workers()
    alloc_rate = c.spec.alloc_rate_mb_s
    if alloc_rate <= 0 or heap.free_mb <= 0:
        return base
    budget_s = c.PACING_TARGET * heap.free_mb / alloc_rate
    if budget_s <= 0:
        return float(c.machine.cores)
    needed_speedup = c.cycle_work_mb(heap) / (c.tuning.concurrent_rate_mb_s * budget_s)
    if needed_speedup <= 1.0:
        needed = 1.0
    else:
        needed = needed_speedup ** (1.0 / c.tuning.efficiency_exponent)
    return float(min(max(base, needed), c.max_concurrent_workers()))


def reference_trigger(c, heap):
    """The documented trigger: the allocation expected during a cycle
    sized now, times the safety factor, kept within [10 %, 90 %] of the
    headroom above the live footprint."""
    workers = reference_workers(c, heap)
    rate = c.tuning.concurrent_rate_mb_s * c.machine.parallel_speedup(
        max(int(workers), 1), c.tuning.efficiency_exponent
    )
    expected_alloc = c.spec.alloc_rate_mb_s * (c.cycle_work_mb(heap) / rate)
    headroom = max(heap.usable_mb - c.live_footprint_mb(), 0.0)
    trigger = c.TRIGGER_SAFETY * expected_alloc
    return float(min(max(trigger, 0.10 * headroom), 0.90 * headroom))


concurrent_states = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["Shenandoah", "ZGC", "GenZGC"]),
        "bench": st.sampled_from(["lusearch", "fop", "h2", "cassandra", "zxing", "jme"]),
        "cores": st.integers(min_value=1, max_value=64),
        "smt": st.integers(min_value=1, max_value=2),
        "efficiency": st.floats(min_value=0.5, max_value=1.0),
        "capacity_factor": st.floats(min_value=1.0, max_value=8.0),
        "live_share": st.floats(min_value=0.0, max_value=1.0),
        "young_share": st.floats(min_value=0.0, max_value=1.0),
        "young_cycles": st.integers(min_value=0, max_value=9),
        "leak_mb": st.floats(min_value=0.0, max_value=50.0),
        # None: a uniformly random heap.  Otherwise free space is set so
        # the adaptive team lands this far between its default and its
        # maximum, where neither clamp hides the sizing arithmetic.
        "team_target": st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    }
)


def concurrent_state(state):
    spec = registry.workload(state["bench"])
    machine = Machine(cores=state["cores"], smt=state["smt"])
    tuning = GcTuning(efficiency_exponent=state["efficiency"])
    c = COLLECTORS[state["name"]](spec, machine, tuning, generator_for("p", state["name"]))
    c.extra_live_mb = state["leak_mb"]
    if state["name"] == "GenZGC":
        c._young_cycles_since_old = state["young_cycles"]
    heap = Heap(
        capacity_mb=c.min_heap_mb() * state["capacity_factor"],
        reserve_fraction=c.RESERVE_FRACTION,
    )
    heap.live_mb = heap.usable_mb * state["live_share"]
    heap.young_mb = (heap.usable_mb - heap.live_mb) * state["young_share"]
    if state["team_target"] is not None and c.cycle_work_mb(heap) > 0:
        base, top = c.default_concurrent_workers(), c.max_concurrent_workers()
        team = base + state["team_target"] * (top - base)
        speedup = team ** c.tuning.efficiency_exponent
        free = (
            c.cycle_work_mb(heap) * c.spec.alloc_rate_mb_s
            / (c.tuning.concurrent_rate_mb_s * c.PACING_TARGET * speedup)
        )
        occupied = heap.live_mb + heap.young_mb
        heap.capacity_mb = (occupied + free) / (1.0 - heap.reserve_fraction)
    return c, heap


class TestCycleSizing:
    """Plans, triggers and the public team size all come from one sizing
    per heap state; they must equal the plain formulas exactly."""

    @settings(max_examples=300, deadline=None)
    @given(concurrent_states)
    def test_plan_and_trigger_match_the_formulas(self, state):
        c, heap = concurrent_state(state)
        workers = c.concurrent_workers(heap)
        assert workers == reference_workers(c, heap)
        plan = c.plan_cycle(heap)
        assert plan.concurrent_threads == workers
        assert plan.concurrent_work_mb == c.cycle_work_mb(heap)
        assert c.trigger_free_mb(heap) == reference_trigger(c, heap)

    @settings(max_examples=50, deadline=None)
    @given(concurrent_states)
    def test_batch_kernel_team_bounds_are_the_collectors(self, state):
        c, _ = concurrent_state(state)
        heap_mb = c.min_heap_mb() * state["capacity_factor"]
        cell = batch_mod.BatchCell(spec=c.spec, heap_mb=heap_mb, invocation=0)
        spec = batch_mod.BatchSpec(
            collector=c.NAME, cells=(cell,), machine=c.machine, tuning=c.tuning
        )
        cls = COLLECTORS[c.NAME]
        sim = batch_mod._BatchSim(spec, [cell], cls, batch_mod._KERNELS[cls])
        assert sim.kernel.base_workers == c.default_concurrent_workers()
        assert sim.kernel.max_workers == c.max_concurrent_workers()
