"""Simulator invariants: accounting, warmup, determinism, OOM behaviour,
and a golden digest of exact output."""

import hashlib
import math

import numpy as np
import pytest

from repro import OutOfMemoryError, registry, simulate_run
from repro.jvm.collectors import COLLECTOR_NAMES, COLLECTORS, GcTuning
from repro.jvm.cpu import Machine
from repro.jvm.environment import EnvironmentProfile
from repro.jvm.simulator import make_collector, warmup_factor

SCALE = 0.05


def run(bench="lusearch", collector="G1", multiple=2.0, **kw):
    spec = registry.workload(bench)
    kw.setdefault("iterations", 2)
    kw.setdefault("duration_scale", SCALE)
    return spec, simulate_run(spec, collector, spec.heap_mb_for(multiple), **kw)


class TestAccounting:
    @pytest.mark.parametrize("collector", COLLECTOR_NAMES)
    def test_costs_positive_and_consistent(self, collector):
        _, result = run(collector=collector, multiple=3.0)
        r = result.timed
        assert r.wall_s > 0
        assert r.task_clock_s >= r.mutator_cpu_s > 0
        assert r.task_clock_s == pytest.approx(r.mutator_cpu_s + r.gc_cpu_s)
        assert 0 <= r.stw_wall_s <= r.wall_s
        assert r.gc_count > 0
        assert r.allocated_mb > 0

    def test_distilled_costs_nonnegative(self):
        for collector in COLLECTOR_NAMES:
            _, result = run(collector=collector, multiple=3.0)
            assert result.timed.distilled_wall_s > 0
            assert result.timed.distilled_task_s > 0

    def test_wall_includes_pauses(self):
        spec, result = run(collector="Serial", multiple=1.5)
        r = result.timed
        # Wall = mutator progress + pauses (+ stalls); progress >= intrinsic.
        assert r.wall_s >= r.stw_wall_s + spec.execution_time_s * SCALE * 0.9

    def test_allocation_close_to_rate_times_time(self):
        spec, result = run(collector="Parallel", multiple=4.0, iterations=1)
        r = result.iterations[0]
        expected = spec.alloc_rate_mb_s * spec.execution_time_s * SCALE
        # Warmup inflates iteration 1; tax divides allocation rate.
        assert r.allocated_mb == pytest.approx(expected * warmup_factor(1, spec), rel=0.25)

    def test_serial_pause_cpu_equals_pause_wall(self):
        _, result = run(collector="Serial", multiple=2.0)
        r = result.timed
        assert r.gc_pause_cpu_s == pytest.approx(r.stw_wall_s)  # one worker
        assert r.gc_concurrent_cpu_s == 0.0

    def test_parallel_pause_cpu_exceeds_wall(self):
        _, result = run(collector="Parallel", multiple=2.0)
        r = result.timed
        assert r.gc_pause_cpu_s > r.stw_wall_s


class TestTimeSpaceTradeoff:
    @pytest.mark.parametrize("collector", ["Serial", "Parallel", "G1"])
    def test_gc_count_falls_with_heap(self, collector):
        _, small = run(collector=collector, multiple=1.25)
        _, large = run(collector=collector, multiple=6.0)
        assert small.timed.gc_count > large.timed.gc_count

    @pytest.mark.parametrize("collector", COLLECTOR_NAMES)
    def test_gc_cpu_falls_with_heap(self, collector):
        _, small = run(collector=collector, multiple=2.0)
        _, large = run(collector=collector, multiple=6.0)
        assert small.timed.gc_cpu_s > large.timed.gc_cpu_s


class TestOutOfMemory:
    def test_below_live_set_fails(self):
        spec = registry.workload("h2")
        with pytest.raises(OutOfMemoryError):
            simulate_run(spec, "G1", spec.live_mb * 0.5, iterations=1, duration_scale=SCALE)

    def test_zgc_fails_where_g1_runs(self):
        # biojava: GMU/GMD = 1.97, so ZGC cannot run at 1.25x while G1 can.
        spec = registry.workload("biojava")
        heap = spec.heap_mb_for(1.25)
        simulate_run(spec, "G1", heap, iterations=1, duration_scale=SCALE)
        with pytest.raises(OutOfMemoryError):
            simulate_run(spec, "ZGC", heap, iterations=1, duration_scale=SCALE)

    def test_all_collectors_run_generous_heap(self):
        spec = registry.workload("xalan")
        for collector in COLLECTOR_NAMES:
            simulate_run(spec, "G1", spec.heap_mb_for(6.0), iterations=1, duration_scale=SCALE)

    def test_unknown_collector_rejected(self):
        spec = registry.workload("fop")
        with pytest.raises(KeyError):
            simulate_run(spec, "CMS", spec.heap_mb_for(2.0))


class TestDeterminism:
    def test_same_invocation_identical(self):
        _, a = run(invocation=3)
        _, b = run(invocation=3)
        assert a.timed.wall_s == b.timed.wall_s
        assert a.timed.gc_count == b.timed.gc_count

    def test_different_invocations_differ(self):
        _, a = run(invocation=0)
        _, b = run(invocation=1)
        assert a.timed.wall_s != b.timed.wall_s


class TestWarmup:
    def test_first_iteration_slowest(self):
        spec, result = run(bench="jython", iterations=4, multiple=4.0)
        walls = [r.wall_s for r in result.iterations]
        assert walls[0] > walls[-1]

    def test_warmup_factor_decays_to_one(self):
        spec = registry.workload("jython")  # PWU = 9, slowest warmup
        assert warmup_factor(1, spec) > warmup_factor(3, spec) > 1.0
        assert warmup_factor(spec.warmup_iterations, spec) == pytest.approx(1.015, abs=0.01)

    def test_warmup_factor_validation(self):
        with pytest.raises(ValueError):
            warmup_factor(0, registry.workload("fop"))

    def test_quick_warmup_workload(self):
        spec = registry.workload("jme")  # PWU = 1
        assert warmup_factor(2, spec) == pytest.approx(1.0, abs=0.02)


class TestLeakage:
    def test_zxing_leaks_across_iterations(self):
        spec = registry.workload("zxing")  # GLK = 120, highest in suite
        result = simulate_run(spec, "G1", spec.heap_mb_for(4.0), iterations=5, duration_scale=SCALE)
        first = result.iterations[0].telemetry.gc_log[-1].heap_after_mb
        last = result.iterations[-1].telemetry.gc_log[-1].heap_after_mb
        assert last > first

    def test_non_leaky_workload_stable(self):
        spec = registry.workload("fop")  # GLK = 0
        result = simulate_run(spec, "G1", spec.heap_mb_for(4.0), iterations=5, duration_scale=SCALE)
        first = result.iterations[0].telemetry.gc_log[-1].heap_after_mb
        last = result.iterations[-1].telemetry.gc_log[-1].heap_after_mb
        assert last == pytest.approx(first, rel=0.25)


class TestBehaviouralSignatures:
    def test_shenandoah_throttles_lusearch(self):
        """The paper's Section 6.2 lusearch analysis: wall blows up, task
        clock much less."""
        spec = registry.workload("lusearch")
        shen = simulate_run(spec, "Shenandoah", spec.heap_mb_for(2.0), iterations=2, duration_scale=SCALE)
        g1 = simulate_run(spec, "G1", spec.heap_mb_for(2.0), iterations=2, duration_scale=SCALE)
        # Wall-clock: Shenandoah far worse than G1 on this workload.
        assert shen.timed.wall_s > 1.5 * g1.timed.wall_s

    def test_zgc_stalls_under_pressure(self):
        spec = registry.workload("lusearch")
        result = simulate_run(spec, "ZGC", spec.heap_mb_for(2.0), iterations=2, duration_scale=SCALE)
        assert result.timed.stall_wall_s > 0

    def test_stw_collectors_never_stall(self):
        for collector in ("Serial", "Parallel"):
            _, result = run(collector=collector, multiple=1.5)
            assert result.timed.stall_wall_s == 0.0

    def test_concurrent_collectors_use_concurrent_cpu(self):
        for collector in ("Shenandoah", "ZGC", "G1"):
            _, result = run(collector=collector, multiple=3.0)
            assert result.timed.gc_concurrent_cpu_s > 0

    def test_heap_after_gc_series_monotone_time(self):
        _, result = run(multiple=2.0)
        series = result.timed.telemetry.heap_after_gc_series()
        times = [t for t, _ in series]
        assert times == sorted(times)
        assert all(mb >= 0 for _, mb in series)


def _golden_cells():
    """A small fixed grid pinned to its exact simulated output.

    Every collector (GenZGC included) at both fidelity tiers, on a
    steady and an allocation-heavy workload; a leaking workload with a
    forced full GC between iterations; a non-default machine, tuning
    and environment; and out-of-memory cells, both at setup (the live
    set does not fit) and mid-run (no GC can make progress).  The
    48-core machine gives Shenandoah and ZGC a wide adaptive-team range,
    so team sizes that neither clamp hides reach the digest.
    """
    machine = Machine(cores=48, smt=1, base_clock_ghz=3.2, llc_mb=32.0, name="48-core")
    tuning = GcTuning(mark_rate_mb_s=1999.5, concurrent_rate_mb_s=900.0, pause_floor_s=0.0002)
    environment = EnvironmentProfile(
        slow_memory=True, llc_fraction=0.25, frequency_boost=True, compiler="c2-only"
    )
    names = tuple(COLLECTORS)
    cells = []
    for fidelity in ("aggregate", "full"):
        for name in names:
            cells.append(("fop", name, 2.0, dict(fidelity=fidelity)))
            cells.append(
                ("lusearch", name, 1.5, dict(fidelity=fidelity, duration_scale=0.02))
            )
            cells.append(
                (
                    "zxing", name, 1.5,
                    dict(fidelity=fidelity, iterations=4,
                         force_full_gc_between_iterations=True),
                )
            )
            for bench in ("cassandra", "lusearch"):
                cells.append(
                    (
                        bench, name, 2.0,
                        dict(fidelity=fidelity, invocation=3, machine=machine,
                             tuning=tuning, environment=environment),
                    )
                )
    for name in names:
        cells.append(("fop", name, 1.0, dict(fidelity="aggregate")))
        # A multiple of 0 means "at the collector's own minimum heap",
        # where zxing's GC cannot reclaim enough to make progress.
        cells.append(("zxing", name, 0.0, dict(fidelity="full")))
    return cells


def _golden_digest():
    h = hashlib.sha256()
    for bench, name, multiple, kw in _golden_cells():
        spec = registry.workload(bench)
        kw = dict(kw)
        kw.setdefault("iterations", 2)
        kw.setdefault("duration_scale", SCALE)
        if multiple == 0.0:
            heap_mb = make_collector(name, spec).min_heap_mb()
        else:
            heap_mb = spec.heap_mb_for(multiple)
        h.update(f"{bench}/{name}/{multiple}/{sorted(kw)}\n".encode())
        try:
            result = simulate_run(spec, name, heap_mb, **kw)
        except OutOfMemoryError as exc:
            h.update(f"OOM {exc}\n".encode())
            continue
        values = list(result.forced_gc_footprints_mb)
        for r in result.iterations:
            values += [
                r.wall_s, r.mutator_cpu_s, r.gc_pause_cpu_s, r.gc_concurrent_cpu_s,
                r.stw_wall_s, r.stall_wall_s, float(r.gc_count), r.allocated_mb,
                r.live_end_mb, r.avg_footprint_mb,
            ]
            if r.telemetry is None:
                continue
            t = r.telemetry
            for p in t.pauses:
                values += [p.start, p.duration]
                h.update(p.kind.encode())
            for s in t.spans:
                values += [s.start, s.end, s.gc_threads, s.dilation]
            for s in t.stalls:
                values += [s.start, s.duration]
            for e in t.gc_log:
                values += [
                    e.time, e.pause_s, e.reclaimed_mb, e.heap_before_mb, e.heap_after_mb,
                ]
                h.update(e.kind.encode())
        h.update(" ".join(float(v).hex() for v in values).encode())
        h.update(b"\n")
    return h.hexdigest()


def _primitive_canary():
    """Digest of the libm/numpy primitives the simulator's floats pass
    through (``np.exp`` of seeded normal draws, ``math.log``/``math.exp``,
    fractional ``**``).  A host whose primitives round differently by an
    ulp cannot reproduce the golden digest, whatever the simulator does."""
    rng = np.random.default_rng(20250301)
    draws = rng.normal(0.0, 0.05, size=64)
    values = [float(np.exp(x)) for x in draws]
    for x in (0.3, 1.7, 12.5, 333.0, 4.2e-3):
        values += [math.log(x), math.exp(-x / 7.0), x ** 0.85, x ** (1.0 / 0.85), x ** 0.5]
    for threads in range(1, 33):
        values.append(float(threads) ** 0.85)
    return hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()


#: sha256 of the host primitives above on the host the golden digest
#: was captured on.
PRIMITIVE_CANARY = "d852dbf907e4e8db24cc6de42395c449feb2d5a33a26d283d2351467dc0c718c"
#: sha256 of every headline scalar and every full-tier pause, span,
#: stall and GC-log entry of :func:`_golden_cells`.  Any change to the
#: simulator's float operations or their order shows up here.
GOLDEN_OUTPUT = "39aa9b50cc9e9753ee289189ef40943ff6733d4f5dc5c6a7d2e6be56a6ddaa73"


class TestGoldenOutput:
    def test_simulator_output_is_pinned(self):
        canary = _primitive_canary()
        if canary != PRIMITIVE_CANARY:
            pytest.skip(
                "this host's exp/log/pow round differently from the host the "
                f"golden digest was captured on (canary {canary[:12]})"
            )
        assert _golden_digest() == GOLDEN_OUTPUT
