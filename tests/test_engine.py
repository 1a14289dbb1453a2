"""The cell execution engine: keys, cache, parallelism, and plans."""

import dataclasses
import gc
import hashlib
import json
import pickle
import sys
import threading

import pytest

import repro.harness.engine as engine_mod
from repro import (
    Cell,
    ExecutionEngine,
    OutOfMemoryError,
    RunConfig,
    UnknownCollectorError,
    cell_key,
    measure,
    plan_latency,
    plan_lbo,
    registry,
    resolve_collector,
    run_plan,
)
from repro.harness.engine import CellResult, EngineStats, ProgressSink, ResultCache
from repro.harness.experiments import latency_experiment, lbo_experiment, suite_lbo
from repro.jvm.collectors.base import GcTuning
from repro.jvm.cpu import Machine
from repro.jvm.environment import EnvironmentProfile


def make_cell(spec, collector="G1", heap_multiple=3.0, invocation=0, config=None):
    config = config or RunConfig(invocations=2, iterations=2, duration_scale=0.05)
    return Cell(
        spec=spec,
        collector=collector,
        heap_mb=spec.heap_mb_for(heap_multiple),
        invocation=invocation,
        config=config,
    )


class TestCellKey:
    def test_stable_across_calls(self, lusearch, fast_config):
        a = cell_key(make_cell(lusearch, config=fast_config))
        b = cell_key(make_cell(lusearch, config=fast_config))
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_each_field_invalidates(self, lusearch, h2, fast_config):
        base = cell_key(make_cell(lusearch, config=fast_config))
        variants = [
            make_cell(h2, config=fast_config),
            make_cell(lusearch, collector="ZGC", config=fast_config),
            make_cell(lusearch, heap_multiple=4.0, config=fast_config),
            make_cell(lusearch, invocation=1, config=fast_config),
            make_cell(lusearch, config=dataclasses.replace(fast_config, iterations=3)),
            make_cell(lusearch, config=dataclasses.replace(fast_config, duration_scale=0.06)),
            make_cell(
                lusearch,
                config=dataclasses.replace(fast_config, tuning=GcTuning(mark_rate_mb_s=1999.0)),
            ),
            make_cell(
                lusearch, config=dataclasses.replace(fast_config, machine=Machine(cores=8))
            ),
            make_cell(
                lusearch,
                config=dataclasses.replace(
                    fast_config, environment=EnvironmentProfile(slow_memory=True)
                ),
            ),
        ]
        keys = [cell_key(v) for v in variants]
        assert base not in keys
        assert len(set(keys)) == len(keys)

    def test_invocation_count_does_not_invalidate(self, lusearch, fast_config):
        # A cell is one invocation: asking for more invocations must reuse
        # the cells already computed.
        more = dataclasses.replace(fast_config, invocations=7)
        assert cell_key(make_cell(lusearch, config=fast_config)) == cell_key(
            make_cell(lusearch, config=more)
        )

    def test_schema_version_invalidates(self, lusearch, fast_config, monkeypatch):
        base = cell_key(make_cell(lusearch, config=fast_config))
        monkeypatch.setattr(engine_mod, "ENGINE_SCHEMA_VERSION", 999)
        assert cell_key(make_cell(lusearch, config=fast_config)) != base

    def test_rejects_unknown_collector(self, lusearch, fast_config):
        with pytest.raises(UnknownCollectorError):
            make_cell(lusearch, collector="CMS", config=fast_config)


def golden_cells():
    """Cells whose keys are pinned literally: any change to the key
    schema, the canonical encoding or the field order shows up here."""
    fop = registry.workload("fop")
    lusearch = registry.workload("lusearch")
    assert fop.requests is None and lusearch.requests is not None
    fast = RunConfig(invocations=2, iterations=2, duration_scale=0.05)
    custom = RunConfig(
        iterations=3,
        machine=Machine(cores=8, smt=1, base_clock_ghz=3.2, llc_mb=32.0, name="eight-core"),
        tuning=GcTuning(mark_rate_mb_s=1999.5, pause_floor_s=0.0002),
        duration_scale=0.3,
        environment=EnvironmentProfile(
            slow_memory=True, llc_fraction=0.25, frequency_boost=True, compiler="c2-only"
        ),
    )
    return {
        "default": Cell(fop, "G1", fop.heap_mb_for(2.0), 0, RunConfig()),
        "aggregate": Cell(
            fop, "Parallel", fop.heap_mb_for(3.0), 1,
            RunConfig(duration_scale=0.05, fidelity="aggregate"),
        ),
        "custom-config": Cell(fop, "ZGC", fop.heap_mb_for(1.5), 0, custom),
        "latency-workload": Cell(
            lusearch, "Shenandoah", lusearch.heap_mb_for(2.0), 0, fast
        ),
        "non-dyadic-heap": Cell(lusearch, "Serial", lusearch.minheap_mb * 4 / 3, 7, fast),
        "full-fidelity": Cell(
            fop, "GenZGC", fop.heap_mb_for(6.0), 2,
            RunConfig(iterations=2, duration_scale=0.05, fidelity="full"),
        ),
    }


#: sha256 keys of :func:`golden_cells` under schema 3.  Existing caches
#: are addressed by these; a change here orphans every cached entry.
GOLDEN_KEYS = {
    "default": "21288c21e6124f4bff9ca339f48b0a9db771ba4a3c7c80db70d88f17f3ef9ac7",
    "aggregate": "c789f96106d00ffca357d7cd5ffff0b5a783dbaf463a913bcaed1f06dd927ccd",
    "custom-config": "cb59d062170f90e912e7808522800238efea2fd09d9614a07ac88ba389900975",
    "latency-workload": "e96228aa58e3fda8d2402b737affc2785cb499410ed9eb59fb20f10218ac8216",
    "non-dyadic-heap": "be82375436f86654bd583bd3f7de6d91b9a69f5a410399de0f04243c3c1842e1",
    "full-fidelity": "7d497c452b95042153949948eb2dec4e30da0005d210394301dcdd0817452dee",
}


def memo_free_key(cell):
    """The key recomputed from scratch: one ``json.dumps`` of the whole
    canonical payload, no memo."""
    config = cell.config
    canonical = engine_mod._canonical
    payload = {
        "schema": engine_mod.ENGINE_SCHEMA_VERSION,
        "workload": canonical(cell.spec),
        "collector": cell.collector,
        "heap_mb": canonical(float(cell.heap_mb)),
        "invocation": cell.invocation,
        "iterations": config.iterations,
        "machine": canonical(config.machine),
        "tuning": canonical(config.tuning),
        "duration_scale": canonical(float(config.duration_scale)),
        "environment": canonical(config.environment),
    }
    if config.fidelity not in (None, "full"):
        payload["fidelity"] = config.fidelity
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestGoldenKeys:
    def test_keys_are_pinned(self):
        assert {name: cell_key(c) for name, c in golden_cells().items()} == GOLDEN_KEYS

    def test_pinned_keys_are_memo_free_keys(self):
        for cell in golden_cells().values():
            assert cell_key(cell) == memo_free_key(cell)


class TestKeyMemo:
    def variant(self, base, i):
        return dataclasses.replace(base, alloc_rate_mb_s=base.alloc_rate_mb_s + i)

    def test_warm_memo_gives_the_pinned_keys(self):
        cells = golden_cells()
        engine_mod._FRAGMENTS.clear()
        cold = {name: cell_key(c) for name, c in cells.items()}
        warm = {name: cell_key(c) for name, c in cells.items()}
        assert cold == warm == GOLDEN_KEYS

    def test_reused_ids_never_serve_a_stale_fragment(self, lusearch, fast_config):
        spec = self.variant(lusearch, 0)
        cell_key(make_cell(spec, config=fast_config))
        del spec
        gc.collect()
        other = make_cell(self.variant(lusearch, 1), config=fast_config)
        assert cell_key(other) == memo_free_key(other)
        # Once the memo evicts a dropped spec, the allocator hands its
        # address (its id) to a later, value-different spec, which must
        # still get its own key.
        seen, reused = set(), 0
        for i in range(2, 3 * engine_mod._FRAGMENT_MEMO_SIZE):
            cell = make_cell(self.variant(lusearch, i), config=fast_config)
            reused += id(cell.spec) in seen
            seen.add(id(cell.spec))
            assert cell_key(cell) == memo_free_key(cell)
        assert reused  # CPython reuses freed addresses: the hazard was exercised

    def test_memo_stays_bounded(self, lusearch, fast_config):
        specs = [self.variant(lusearch, i) for i in range(2 * engine_mod._FRAGMENT_MEMO_SIZE)]
        for spec in specs:
            cell_key(make_cell(spec, config=fast_config))
            assert len(engine_mod._FRAGMENTS) <= engine_mod._FRAGMENT_MEMO_SIZE
        assert len(engine_mod._FRAGMENTS) == engine_mod._FRAGMENT_MEMO_SIZE

    def test_concurrent_keys_equal_serial_keys(self, lusearch, fast_config):
        # More distinct specs than the memo holds, so threads insert and
        # evict concurrently; a short switch interval interleaves them.
        specs = [
            self.variant(lusearch, i) for i in range(engine_mod._FRAGMENT_MEMO_SIZE + 72)
        ]
        cells = [
            make_cell(spec, collector=collector, config=fast_config)
            for spec in specs
            for collector in ("G1", "ZGC")
        ]
        serial = [memo_free_key(c) for c in cells]
        engine_mod._FRAGMENTS.clear()
        start = threading.Barrier(4)
        found = [None] * 4

        def worker(slot):
            start.wait()
            if slot % 2:
                found[slot] = [cell_key(c) for c in reversed(cells)][::-1]
            else:
                found[slot] = [cell_key(c) for c in cells]

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert found == [serial] * 4
        assert len(engine_mod._FRAGMENTS) <= engine_mod._FRAGMENT_MEMO_SIZE


class TestResultCache:
    def test_roundtrip_and_layout(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = CellResult(key="ab" + "0" * 62, timed=None, oom="nope")
        cache.put(result)
        path = cache.path_for(result.key)
        assert path.exists() and path.parent.name == "ab"
        assert cache.get(result.key) == result

    def test_miss_and_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        assert cache.get(key) is None
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        # Garbage that unpickles far enough to raise ValueError, not
        # UnpicklingError -- any exception must read as a miss.
        path.write_bytes(b"garbage\n")
        assert cache.get(key) is None

    def test_wrong_key_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_bytes(
            pickle.dumps(CellResult(key="other", timed=None, oom=None))
        )
        assert cache.get(key) is None


class TestEngineCaching:
    def test_cold_then_warm(self, lusearch, fast_config, tmp_path):
        cells = [make_cell(lusearch, invocation=i, config=fast_config) for i in range(2)]
        cold = ExecutionEngine(cache_dir=tmp_path)
        first = cold.run_cells(cells)
        assert cold.stats.executed == 2 and cold.stats.cached == 0

        warm = ExecutionEngine(cache_dir=tmp_path)
        second = warm.run_cells(cells)
        assert warm.stats.executed == 0 and warm.stats.cached == 2
        assert [r.timed.wall_s for r in first] == [r.timed.wall_s for r in second]

    def test_warm_cache_runs_zero_simulations(self, lusearch, fast_config, tmp_path, monkeypatch):
        cells = [make_cell(lusearch, invocation=i, config=fast_config) for i in range(2)]
        ExecutionEngine(cache_dir=tmp_path).run_cells(cells)

        calls = []
        monkeypatch.setattr(
            engine_mod,
            "simulate_run",
            lambda *a, **k: calls.append(1) or (_ for _ in ()).throw(AssertionError),
        )
        warm = ExecutionEngine(cache_dir=tmp_path)
        results = warm.run_cells(cells)
        assert calls == []
        assert all(r.ok for r in results)

    def test_no_cache_dir_always_executes(self, lusearch, fast_config):
        cells = [make_cell(lusearch, config=fast_config)]
        engine = ExecutionEngine()
        engine.run_cells(cells)
        engine.run_cells(cells)
        assert engine.stats.executed == 2 and engine.stats.cached == 0

    def test_negative_oom_result_cached(self, h2, fast_config, tmp_path):
        # Half the live set: guaranteed OutOfMemoryError, cached as such.
        cell = Cell(
            spec=h2, collector="G1", heap_mb=h2.live_mb * 0.5, invocation=0, config=fast_config
        )
        cold = ExecutionEngine(cache_dir=tmp_path)
        [first] = cold.run_cells([cell])
        assert first.oom is not None and cold.stats.oom == 1

        warm = ExecutionEngine(cache_dir=tmp_path)
        [again] = warm.run_cells([cell])
        assert warm.stats.executed == 0 and warm.stats.cached == 1
        assert again.oom == first.oom

    def test_fail_fast_skips_rest_serially(self, h2, fast_config):
        cells = [
            Cell(spec=h2, collector="G1", heap_mb=h2.live_mb * 0.5, invocation=i, config=fast_config)
            for i in range(3)
        ]
        engine = ExecutionEngine()
        results = engine.run_cells(cells, fail_fast=True)
        assert engine.stats.executed == 1 and engine.stats.skipped == 2
        assert all(r.oom for r in results)
        assert results[1].skipped and results[2].skipped


class TestProgressSink:
    def test_events_fire_for_hits_and_misses(self, lusearch, fast_config, tmp_path):
        class Recorder(ProgressSink):
            def __init__(self):
                self.events = []

            def batch_started(self, total_cells):
                self.events.append(("start", total_cells))

            def cell_finished(self, cell, result, from_cache):
                self.events.append(("cell", cell.invocation, from_cache))

            def batch_finished(self, stats):
                self.events.append(("done", stats.executed))

        cells = [make_cell(lusearch, invocation=i, config=fast_config) for i in range(2)]
        ExecutionEngine(cache_dir=tmp_path).run_cells(cells)

        sink = Recorder()
        ExecutionEngine(cache_dir=tmp_path, progress=sink).run_cells(cells)
        assert sink.events[0] == ("start", 2)
        assert ("cell", 0, True) in sink.events and ("cell", 1, True) in sink.events
        assert sink.events[-1] == ("done", 0)

    def test_log_sink_writes_lines(self, lusearch, fast_config):
        import io

        stream = io.StringIO()
        engine = ExecutionEngine(progress=engine_mod.LogSink(stream))
        engine.run_cells([make_cell(lusearch, config=fast_config)])
        out = stream.getvalue()
        assert "lusearch" in out and "engine:" in out


class TestParallelEquivalence:
    # The acceptance bar: >= 4 workloads, jobs=4 vs jobs=1, byte-identical.
    WORKLOADS = ("fop", "lusearch", "biojava", "avrora")
    COLLECTORS = ("Serial", "G1")
    MULTIPLES = (1.5, 3.0)

    def _suite(self, engine, fast_config):
        specs = [registry.workload(n) for n in self.WORKLOADS]
        return suite_lbo(
            specs,
            collectors=self.COLLECTORS,
            multiples=self.MULTIPLES,
            config=fast_config,
            engine=engine,
        )

    def test_jobs4_bit_identical_to_jobs1(self, fast_config):
        serial = self._suite(ExecutionEngine(jobs=1), fast_config)
        parallel = self._suite(ExecutionEngine(jobs=4), fast_config)
        assert serial.geomean_wall == parallel.geomean_wall
        assert serial.geomean_task == parallel.geomean_task
        assert pickle.dumps(serial.geomean_wall) == pickle.dumps(parallel.geomean_wall)
        assert pickle.dumps(serial.geomean_task) == pickle.dumps(parallel.geomean_task)

    def test_engineless_path_matches_engine_path(self, fast_config):
        specs = [registry.workload(n) for n in self.WORKLOADS]
        legacy = suite_lbo(
            specs, collectors=self.COLLECTORS, multiples=self.MULTIPLES, config=fast_config
        )
        engined = self._suite(ExecutionEngine(jobs=4), fast_config)
        assert legacy.geomean_wall == engined.geomean_wall
        assert legacy.geomean_task == engined.geomean_task

    def test_warm_cache_suite_rerun_executes_nothing(self, fast_config, tmp_path, monkeypatch):
        first = self._suite(ExecutionEngine(jobs=4, cache_dir=tmp_path), fast_config)

        count = {"calls": 0}

        def counting(*args, **kwargs):
            count["calls"] += 1
            raise AssertionError("warm cache must not simulate")

        monkeypatch.setattr(engine_mod, "simulate_run", counting)
        warm_engine = ExecutionEngine(jobs=1, cache_dir=tmp_path)
        second = self._suite(warm_engine, fast_config)
        assert count["calls"] == 0
        assert warm_engine.stats.executed == 0
        assert pickle.dumps(first.geomean_wall) == pickle.dumps(second.geomean_wall)
        assert pickle.dumps(first.geomean_task) == pickle.dumps(second.geomean_task)


class TestMeasureThroughEngine:
    def test_oom_message_matches_serial_contract(self, h2, fast_config, tmp_path):
        with pytest.raises(OutOfMemoryError) as serial_err:
            measure(h2, "G1", h2.live_mb * 0.5, fast_config)
        with pytest.raises(OutOfMemoryError) as engine_err:
            measure(
                h2, "G1", h2.live_mb * 0.5, fast_config,
                engine=ExecutionEngine(cache_dir=tmp_path),
            )
        assert str(serial_err.value) == str(engine_err.value)

    def test_measure_warm_cache(self, lusearch, fast_config, tmp_path):
        heap = lusearch.heap_mb_for(3.0)
        cold = ExecutionEngine(cache_dir=tmp_path)
        a = measure(lusearch, "G1", heap, fast_config, engine=cold)
        warm = ExecutionEngine(cache_dir=tmp_path)
        b = measure(lusearch, "G1", heap, fast_config, engine=warm)
        assert warm.stats.executed == 0
        assert [r.wall_s for r in a.results] == [r.wall_s for r in b.results]

    def test_typo_fails_fast_with_hint(self, lusearch, fast_config):
        with pytest.raises(UnknownCollectorError) as err:
            measure(lusearch, "g1", lusearch.heap_mb_for(2.0), fast_config)
        assert "G1" in str(err.value) and "Shenandoah" in str(err.value)


class TestResolveCollector:
    def test_valid_names_pass_through(self):
        for name in ("Serial", "Parallel", "G1", "Shenandoah", "ZGC", "GenZGC"):
            assert resolve_collector(name) == name

    def test_unknown_raises_with_listing(self):
        with pytest.raises(UnknownCollectorError) as err:
            resolve_collector("CMS")
        message = str(err.value)
        for name in ("Serial", "Parallel", "G1", "Shenandoah", "ZGC"):
            assert name in message
        assert isinstance(err.value, KeyError)  # backward compatible

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            resolve_collector(None)


class TestPlans:
    def test_plan_lbo_enumerates_cells(self, lusearch, fast_config):
        plan = plan_lbo(lusearch, collectors=("Serial", "G1"), multiples=(2.0, 6.0), config=fast_config)
        cells = plan.cells()
        assert len(cells) == plan.cell_count == 2 * 2 * fast_config.invocations
        assert cells[0].collector == "Serial" and cells[-1].collector == "G1"
        assert cells[0].heap_mb == lusearch.heap_mb_for(2.0)

    def test_plan_validation(self, lusearch, fast_config):
        with pytest.raises(UnknownCollectorError):
            plan_lbo(lusearch, collectors=("CMS",), config=fast_config)
        with pytest.raises(ValueError):
            plan_lbo(lusearch, multiples=(-1.0,), config=fast_config)
        with pytest.raises(ValueError):
            plan_lbo((), config=fast_config)
        with pytest.raises(ValueError):
            plan_latency(registry.workload("fop"), config=fast_config)  # not latency-sensitive

    def test_run_plan_matches_lbo_experiment(self, lusearch, fast_config):
        direct = lbo_experiment(
            lusearch, collectors=("Serial", "G1"), multiples=(2.0, 6.0), config=fast_config
        )
        planned = run_plan(
            plan_lbo(lusearch, collectors=("Serial", "G1"), multiples=(2.0, 6.0), config=fast_config)
        )
        assert planned.per_benchmark[0].wall == direct.wall
        assert planned.per_benchmark[0].task == direct.task

    def test_run_plan_matches_latency_experiment(self, cassandra, fast_config):
        direct = latency_experiment(cassandra, "G1", 2.0, fast_config)
        [planned] = run_plan(
            plan_latency(cassandra, collectors=("G1",), multiples=(2.0,), config=fast_config)
        )
        assert planned.benchmark == direct.benchmark
        assert planned.report.simple == direct.report.simple
        assert (planned.events.starts == direct.events.starts).all()
        assert (planned.events.ends == direct.events.ends).all()

    def test_latency_plan_drops_infeasible_points_unless_strict(self, cassandra, fast_config):
        # 0.9x min heap cannot run; non-strict drops it, strict raises.
        plan = plan_latency(cassandra, collectors=("ZGC",), multiples=(0.2,), config=fast_config)
        assert run_plan(plan) == []
        with pytest.raises(OutOfMemoryError):
            run_plan(plan, strict=True)
