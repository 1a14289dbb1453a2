"""Vectorized batch kernel: equivalence contract and engine behavior.

The batch kernel (:mod:`repro.jvm.batch`) promises three things:

1. *Equivalence*: a heap-factor row simulated in one vectorized pass
   matches the scalar oracle cell by cell — headline scalars within
   :data:`~repro.jvm.batch.BATCH_TOLERANCE`, ``gc_count`` exactly, OOM
   messages byte-identical.
2. *Transparency*: batch execution is an engine-internal strategy.
   Cell keys, cache entries, skipped/fail-fast semantics, and the
   warm-cache zero-simulation guarantee are unchanged with ``batch=True``,
   so warm caches survive toggling the kernel on or off.
3. *Deference*: resilience and supervision win.  A resilient engine
   (retries, chaos, or a supervisor) routes through the scalar path, so
   hole and admission behavior is identical whatever the batch flag
   says.
"""

from __future__ import annotations

import pytest

from repro import (
    COLLECTOR_NAMES,
    ExecutionEngine,
    RunConfig,
    cell_key,
    registry,
    simulate_run,
    suite_lbo,
)
from repro.core.minheap import find_min_heap, runs_in, runs_in_batch
from repro.harness.engine import Cell
from repro.jvm.batch import (
    BATCH_TOLERANCE,
    BatchCell,
    BatchResult,
    BatchSpec,
    batch_scalars_close,
    simulate_batch,
)
from repro.jvm.heap import OutOfMemoryError
from repro.resilience import Supervisor

SCALE = 0.05

#: A dense heap-factor row, plus every registered collector (the five
#: production names and the generational ZGC variant).
ROW_MULTIPLES = (1.0, 1.25, 1.5, 2.0, 3.0)
ALL_COLLECTORS = COLLECTOR_NAMES + ("GenZGC",)

#: Every headline scalar of an IterationResult, including derived views.
HEADLINE_SCALARS = (
    "wall_s",
    "mutator_cpu_s",
    "gc_pause_cpu_s",
    "gc_concurrent_cpu_s",
    "stw_wall_s",
    "stall_wall_s",
    "gc_count",
    "allocated_mb",
    "live_end_mb",
    "avg_footprint_mb",
    "task_clock_s",
    "distilled_wall_s",
    "distilled_task_s",
)


def scalar_outcome(spec, collector, heap_mb, invocation=0, iterations=2):
    """The oracle: one scalar run, reduced to (timed, oom_message)."""
    try:
        run = simulate_run(
            spec,
            collector,
            heap_mb,
            iterations=iterations,
            invocation=invocation,
            duration_scale=SCALE,
            fidelity="aggregate",
        )
    except OutOfMemoryError as exc:
        return None, str(exc)
    return run.timed, None


def assert_outcome_matches(outcome, timed, oom, context):
    if oom is not None:
        assert outcome.oom == oom, context
        return
    assert outcome.ok, f"{context}: batch OOM'd but scalar completed: {outcome.oom!r}"
    batch_timed = outcome.run.timed
    for name in HEADLINE_SCALARS:
        bv, sv = getattr(batch_timed, name), getattr(timed, name)
        if name == "gc_count":
            assert bv == sv, f"{context}: gc_count batch={bv} scalar={sv}"
        else:
            assert batch_scalars_close(bv, sv), (
                f"{context}: {name} batch={bv!r} scalar={sv!r} "
                f"(tolerance {BATCH_TOLERANCE})"
            )


class TestRowEquivalence:
    @pytest.mark.parametrize("collector", ALL_COLLECTORS)
    def test_heap_factor_row_matches_scalar_oracle(self, lusearch, collector):
        """One vectorized pass over a dense row == per-cell scalar runs."""
        heaps = [lusearch.heap_mb_for(m) for m in ROW_MULTIPLES]
        batch = simulate_batch(
            BatchSpec(
                collector=collector,
                cells=tuple(BatchCell(spec=lusearch, heap_mb=h) for h in heaps),
                iterations=2,
                duration_scale=SCALE,
            )
        )
        assert len(batch) == len(heaps)
        for multiple, heap_mb, outcome in zip(ROW_MULTIPLES, heaps, batch):
            timed, oom = scalar_outcome(lusearch, collector, heap_mb)
            assert_outcome_matches(
                outcome, timed, oom, f"{collector}@{multiple}x"
            )

    @pytest.mark.parametrize("collector", ALL_COLLECTORS)
    def test_infeasible_cell_gets_the_exact_oom_message(self, lusearch, collector):
        """A lane that cannot fit OOMs with the scalar path's message,
        byte for byte, without poisoning its row-mates."""
        tiny = lusearch.live_mb * 0.4
        roomy = lusearch.heap_mb_for(4.0)
        batch = simulate_batch(
            BatchSpec(
                collector=collector,
                cells=(
                    BatchCell(spec=lusearch, heap_mb=tiny),
                    BatchCell(spec=lusearch, heap_mb=roomy),
                ),
                iterations=2,
                duration_scale=SCALE,
            )
        )
        timed, oom = scalar_outcome(lusearch, collector, tiny)
        assert oom is not None
        assert_outcome_matches(batch[0], timed, oom, f"{collector}/tiny")
        timed, oom = scalar_outcome(lusearch, collector, roomy)
        assert oom is None
        assert_outcome_matches(batch[1], timed, oom, f"{collector}/roomy")

    def test_invocation_replays_the_scalar_noise_stream(self, lusearch):
        """Batch cell (spec, heap, k) replays scalar invocation k."""
        heap_mb = lusearch.heap_mb_for(2.0)
        batch = simulate_batch(
            BatchSpec(
                collector="G1",
                cells=tuple(
                    BatchCell(spec=lusearch, heap_mb=heap_mb, invocation=k)
                    for k in range(3)
                ),
                iterations=2,
                duration_scale=SCALE,
            )
        )
        walls = set()
        for k, outcome in enumerate(batch):
            timed, oom = scalar_outcome(lusearch, "G1", heap_mb, invocation=k)
            assert_outcome_matches(outcome, timed, oom, f"G1/invocation{k}")
            walls.add(outcome.run.timed.wall_s)
        assert len(walls) == 3  # distinct noise draws, not one replicated

    def test_mixed_workload_rows(self, lusearch, avrora):
        """A batch may mix workloads: each lane still matches its oracle."""
        cells = tuple(
            BatchCell(spec=spec, heap_mb=spec.heap_mb_for(m))
            for spec in (lusearch, avrora)
            for m in (1.5, 3.0)
        )
        batch = simulate_batch(
            BatchSpec(collector="Shenandoah", cells=cells, iterations=2,
                      duration_scale=SCALE)
        )
        for cell, outcome in zip(cells, batch):
            timed, oom = scalar_outcome(cell.spec, "Shenandoah", cell.heap_mb)
            assert_outcome_matches(
                outcome, timed, oom, f"Shenandoah/{cell.spec.name}"
            )

    def test_empty_batch(self):
        assert simulate_batch(
            BatchSpec(collector="G1", cells=())
        ) == BatchResult(outcomes=())

    def test_spec_validation(self, lusearch):
        with pytest.raises(Exception):
            BatchSpec(collector="NotACollector", cells=())
        with pytest.raises(ValueError):
            BatchCell(spec=lusearch, heap_mb=0.0)
        with pytest.raises(ValueError):
            BatchCell(spec=lusearch, heap_mb=64.0, invocation=-1)
        with pytest.raises(ValueError):
            BatchSpec(
                collector="G1",
                cells=(BatchCell(spec=lusearch, heap_mb=64.0),),
                iterations=0,
            )


def make_cells(spec, config, collectors=("Serial", "G1"), multiples=(2.0, 3.0)):
    return [
        Cell(
            spec=spec,
            collector=collector,
            heap_mb=spec.heap_mb_for(multiple),
            invocation=invocation,
            config=config,
        )
        for collector in collectors
        for multiple in multiples
        for invocation in range(config.invocations)
    ]


@pytest.fixture(scope="module")
def aggregate_config():
    return RunConfig(
        invocations=2, iterations=2, duration_scale=SCALE, fidelity="aggregate"
    )


class TestEngineTransparency:
    def test_suite_curves_match_the_scalar_engine(self, aggregate_config):
        specs = [registry.workload(n) for n in ("lusearch", "avrora")]
        scalar = suite_lbo(
            specs, ("Serial", "G1", "ZGC"), (1.5, 2.0, 3.0),
            aggregate_config, engine=ExecutionEngine(),
        )
        batched = suite_lbo(
            specs, ("Serial", "G1", "ZGC"), (1.5, 2.0, 3.0),
            aggregate_config, engine=ExecutionEngine(batch=True),
        )
        for curves in ("geomean_wall", "geomean_task"):
            ref, got = getattr(scalar, curves), getattr(batched, curves)
            assert ref.keys() == got.keys()
            for collector in ref:
                for (rm, rv), (gm, gv) in zip(ref[collector], got[collector]):
                    assert rm == gm
                    assert batch_scalars_close(rv, gv)

    def test_cache_keys_unchanged_so_warm_caches_survive(
        self, lusearch, aggregate_config, tmp_path
    ):
        """A cache populated by a batch engine is fully warm for a scalar
        engine and vice versa — the keys are the same keys."""
        cells = make_cells(lusearch, aggregate_config)
        keys = [cell_key(c) for c in cells]

        ExecutionEngine(cache_dir=tmp_path / "a", batch=True).run_cells(cells)
        scalar_warm = ExecutionEngine(cache_dir=tmp_path / "a")
        scalar_warm.run_cells(cells)
        assert scalar_warm.stats.executed == 0
        assert scalar_warm.stats.cached == len(cells)

        ExecutionEngine(cache_dir=tmp_path / "b").run_cells(cells)
        batch_warm = ExecutionEngine(cache_dir=tmp_path / "b", batch=True)
        batch_warm.run_cells(cells)
        assert batch_warm.stats.executed == 0
        assert batch_warm.stats.cached == len(cells)

        assert [cell_key(c) for c in cells] == keys  # keys never move

    def test_warm_batch_engine_runs_zero_simulations(
        self, lusearch, aggregate_config, tmp_path, monkeypatch
    ):
        cells = make_cells(lusearch, aggregate_config)
        ExecutionEngine(cache_dir=tmp_path, batch=True).run_cells(cells)

        import repro.harness.engine as engine_mod
        import repro.jvm.batch as batch_mod

        def boom(*a, **k):
            raise AssertionError("a warm rerun must not simulate")

        monkeypatch.setattr(engine_mod, "simulate_run", boom)
        monkeypatch.setattr(batch_mod, "simulate_batch", boom)
        warm = ExecutionEngine(cache_dir=tmp_path, batch=True)
        results = warm.run_cells(cells)
        assert all(r.ok for r in results)

    def test_results_identical_under_full_fidelity_fallback(self, lusearch):
        """Non-aggregate cells are out of the kernel's scope: a batch
        engine runs them through the scalar path, bit-identically."""
        config = RunConfig(
            invocations=1, iterations=2, duration_scale=SCALE, fidelity="full"
        )
        cells = make_cells(lusearch, config)
        scalar = ExecutionEngine().run_cells(cells)
        batched = ExecutionEngine(batch=True).run_cells(cells)
        assert [r.timed.wall_s for r in scalar] == [r.timed.wall_s for r in batched]
        assert [r.key for r in scalar] == [r.key for r in batched]

    def test_fail_fast_skips_cells_after_oom_like_the_serial_path(
        self, h2, aggregate_config
    ):
        """With fail_fast at jobs=1, cells after the first OOM come back
        as uncached skipped placeholders — same as the scalar engine."""
        infeasible = Cell(
            spec=h2,
            collector="G1",
            heap_mb=h2.live_mb * 0.4,
            invocation=0,
            config=aggregate_config,
        )
        cells = [infeasible] + make_cells(h2, aggregate_config, ("G1",), (3.0,))
        scalar = ExecutionEngine().run_cells(cells, fail_fast=True)
        batched = ExecutionEngine(batch=True).run_cells(cells, fail_fast=True)
        assert [r.skipped for r in scalar] == [r.skipped for r in batched]
        assert [r.oom for r in scalar] == [r.oom for r in batched]
        assert scalar[0].oom is not None
        assert all(r.skipped for r in scalar[1:])

    def test_oom_cached_as_negative_result(self, h2, aggregate_config, tmp_path):
        infeasible = Cell(
            spec=h2,
            collector="G1",
            heap_mb=h2.live_mb * 0.4,
            invocation=0,
            config=aggregate_config,
        )
        engine = ExecutionEngine(cache_dir=tmp_path, batch=True)
        first = engine.run_cells([infeasible])
        assert first[0].oom is not None
        warm = ExecutionEngine(cache_dir=tmp_path, batch=True)
        second = warm.run_cells([infeasible])
        assert warm.stats.negative_hits == 1
        assert second[0].oom == first[0].oom


class TestResilienceWinsOverBatch:
    def test_supervised_engine_routes_through_the_resilient_path(self):
        engine = ExecutionEngine(batch=True, supervisor=Supervisor(budget_s=3600.0))
        assert engine.resilient  # the batch flag defers to supervision

    def test_admission_and_holes_identical_with_batch_on(
        self, lusearch, aggregate_config
    ):
        """A tiny budget refuses the same cells into the same typed holes
        whatever the batch flag says."""
        cells = make_cells(lusearch, aggregate_config)
        outcomes = {}
        for batch in (False, True):
            engine = ExecutionEngine(
                batch=batch, supervisor=Supervisor(budget_s=1e-9)
            )
            result = engine.run_cells(cells, partial=True)
            outcomes[batch] = (
                [h.reason for h in result.holes],
                [h.key for h in result.holes],
                engine.stats.budget_skipped,
            )
        assert outcomes[False] == outcomes[True]


class TestBatchedMinHeapSearch:
    def test_runs_in_batch_matches_scalar_probes(self, lusearch):
        grid = [lusearch.live_mb * f for f in (0.4, 0.8, 1.2, 2.0, 4.0)]
        batched = runs_in_batch(lusearch, "G1", grid, duration_scale=SCALE)
        scalar = [
            runs_in(lusearch, "G1", h, duration_scale=SCALE) for h in grid
        ]
        assert batched == scalar

    def test_probed_search_honours_the_tolerance_contract(self, lusearch):
        bisect = find_min_heap(lusearch, "G1", duration_scale=SCALE)
        probed = find_min_heap(lusearch, "G1", duration_scale=SCALE, probes=8)
        # Both land within tolerance of the true minimum, so they are
        # within two tolerance widths of each other.
        assert abs(probed.min_heap_mb - bisect.min_heap_mb) <= (
            2 * 0.02 * max(probed.min_heap_mb, bisect.min_heap_mb)
        )
        assert runs_in(lusearch, "G1", probed.min_heap_mb, duration_scale=SCALE)

    def test_probes_validation(self, lusearch):
        with pytest.raises(ValueError):
            find_min_heap(lusearch, "G1", duration_scale=SCALE, probes=0)
