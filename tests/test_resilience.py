"""The resilience layer: fault injection, retries, resume from the cache.

The contract under test (see ``repro.resilience``): chaos is
deterministic — a pure function of ``(seed, cell_key, attempt)`` — and
*observational about results*: a faulted run that converges produces
bit-identical payloads to a fault-free run.
"""

import pickle

import pytest

import repro.harness.engine as engine_mod
from repro import Cell, ExecutionEngine, RunConfig, cell_key
from repro.harness.engine import (
    EngineStats,
    Hole,
    LogSink,
    PartialBatch,
    ProgressSink,
    ResultCache,
    engine_from_env,
)
from repro.observability import (
    FaultInjected,
    MetricsRegistry,
    Recorder,
    RetryAttempt,
    chrome_trace,
    validate_chrome_trace,
)
from repro.resilience import (
    CellExecutionError,
    CellTimeout,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    NullInjector,
    RetryPolicy,
    TransientFault,
    WorkerCrash,
    classify,
    corrupt_entry,
)
from repro.resilience.faults import _uniform


def make_cell(spec, collector="G1", heap_multiple=3.0, invocation=0, config=None):
    config = config or RunConfig(invocations=2, iterations=2, duration_scale=0.05)
    return Cell(
        spec=spec,
        collector=collector,
        heap_mb=spec.heap_mb_for(heap_multiple),
        invocation=invocation,
        config=config,
    )


def payload(result):
    """A cell's bit-identity fingerprint.

    Per-cell, not whole-list: pickling a list memoizes shared
    sub-objects, so byte streams differ across processes even when every
    element is identical.
    """
    return pickle.dumps((result.timed, result.oom))


@pytest.fixture
def cells(lusearch, fast_config):
    return [make_cell(lusearch, invocation=i, config=fast_config) for i in range(4)]


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(transient=1.5)
        with pytest.raises(ValueError):
            FaultSpec(crash=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(transient=0.5, crash=0.4, hang=0.3)  # sums past 1
        with pytest.raises(ValueError):
            FaultSpec(hang_s=-1.0)
        with pytest.raises(ValueError):
            FaultSpec.uniform(2.0)

    def test_uniform_splits_evenly(self):
        spec = FaultSpec.uniform(0.4, seed=7)
        assert spec.transient == spec.crash == spec.hang == spec.corrupt == 0.1
        assert spec.seed == 7 and spec.active

    def test_inactive_when_all_zero(self):
        assert not FaultSpec().active
        assert FaultSpec(corrupt=0.01).active


class TestFaultDeterminism:
    def test_same_seed_same_sequence(self, cells):
        keys = [cell_key(c) for c in cells]
        a = FaultInjector(FaultSpec.uniform(0.6, seed=42))
        b = FaultInjector(FaultSpec.uniform(0.6, seed=42))
        seq_a = [a.decide(k, n) for k in keys for n in range(5)]
        seq_b = [b.decide(k, n) for k in keys for n in range(5)]
        assert seq_a == seq_b
        assert [a.corrupts(k) for k in keys] == [b.corrupts(k) for k in keys]

    def test_different_seed_different_sequence(self, cells):
        keys = [cell_key(c) for c in cells]
        a = FaultInjector(FaultSpec.uniform(0.6, seed=0))
        b = FaultInjector(FaultSpec.uniform(0.6, seed=1))
        assert [a.decide(k, n) for k in keys for n in range(8)] != [
            b.decide(k, n) for k in keys for n in range(8)
        ]

    def test_null_injector_never_fires(self):
        null = NullInjector()
        assert not null.enabled
        assert null.decide("abc", 0) is None
        assert not null.corrupts("abc")
        null.fire("crash", "abc", 0)  # no-op, must not raise

    def test_fire_kinds(self):
        injector = FaultInjector(FaultSpec.uniform(0.4, hang_s=0.0))
        with pytest.raises(TransientFault):
            injector.fire("transient", "k", 0)
        with pytest.raises(WorkerCrash):
            injector.fire("crash", "k", 0)
        injector.fire("hang", "k", 0)  # hang_s=0: returns immediately
        with pytest.raises(ValueError):
            injector.fire("meteor", "k", 0)


class TestRetryPolicy:
    def test_taxonomy(self):
        assert classify(TransientFault("x")) == "transient"
        assert classify(WorkerCrash("x")) == "transient"
        assert classify(CellTimeout("x")) == "transient"
        assert classify(ConnectionError("x")) == "transient"
        assert classify(BrokenPipeError("x")) == "transient"
        assert classify(ValueError("x")) == "permanent"
        assert classify(RuntimeError("x")) == "permanent"

    def test_delay_bounded_and_deterministic(self):
        policy = RetryPolicy(retries=5, backoff_base_s=0.05, backoff_cap_s=0.4)
        for attempt in range(6):
            delay = policy.delay_s("somekey", attempt)
            assert delay == policy.delay_s("somekey", attempt)
            nominal = min(0.4, 0.05 * 2 ** attempt)
            assert 0.5 * nominal <= delay < nominal

    def test_jitter_off_gives_nominal(self):
        policy = RetryPolicy(retries=2, backoff_base_s=0.1, jitter=False)
        assert policy.delay_s("k", 0) == 0.1
        assert policy.delay_s("k", 1) == 0.2

    def test_active_and_attempts(self):
        assert not RetryPolicy().active
        assert RetryPolicy(retries=1).active
        assert RetryPolicy(cell_timeout_s=5.0).active
        assert RetryPolicy(retries=3).max_attempts == 4


class TestEngineOffByDefault:
    def test_default_engine_is_not_resilient(self):
        engine = ExecutionEngine()
        assert engine.resilient is False
        assert type(engine.injector) is NullInjector
        assert not engine.retry.active

    def test_stats_grow_new_counters(self):
        stats = EngineStats(retries=2, timeouts=1, gave_up=1, corrupt=3)
        delta = stats.minus(EngineStats(retries=1, corrupt=1))
        assert (delta.retries, delta.timeouts, delta.gave_up) == (1, 1, 1)
        assert delta.corrupt == 2


def raising_seed(cells, rate=0.5):
    """A chaos seed under which at least one cell's first attempt raises
    (transient or crash) — searched, not guessed, so tests that assert
    "chaos actually fired" stay deterministic."""
    keys = [cell_key(c) for c in cells]
    for seed in range(1000):
        injector = FaultInjector(FaultSpec.uniform(rate, seed=seed))
        if any(injector.decide(k, 0) in ("transient", "crash") for k in keys):
            return seed
    raise AssertionError("no raising seed in range")  # pragma: no cover


class TestChaosConvergence:
    """The headline guarantee: chaos + retries == fault-free, bit for bit."""

    def chaos_engine(self, jobs=1, seed=0, **kw):
        return ExecutionEngine(
            jobs=jobs,
            retry=RetryPolicy(retries=6, backoff_base_s=0.001, **kw),
            injector=FaultInjector(FaultSpec.uniform(0.5, seed=seed, hang_s=0.01)),
        )

    def test_serial_chaos_bit_identical(self, cells):
        clean = ExecutionEngine().run_cells(cells)
        engine = self.chaos_engine(seed=raising_seed(cells))
        chaos = engine.run_cells(cells)
        assert [payload(a) for a in clean] == [payload(b) for b in chaos]
        assert engine.stats.retries > 0  # chaos actually fired
        assert engine.stats.gave_up == 0

    def test_pool_chaos_bit_identical(self, cells):
        clean = ExecutionEngine().run_cells(cells)
        engine = self.chaos_engine(jobs=2, seed=raising_seed(cells), cell_timeout_s=60.0)
        chaos = engine.run_cells(cells)
        assert [payload(a) for a in clean] == [payload(b) for b in chaos]
        assert engine.stats.gave_up == 0

    def test_fault_sequence_identical_across_runs(self, cells):
        def record(seed):
            recorder = Recorder()
            engine = self.chaos_engine(seed=seed)
            engine.recorder = recorder
            engine.run_cells(cells)
            return [
                (e.key, e.kind, e.attempt)
                for e in recorder.events()
                if isinstance(e, FaultInjected)
            ]

        base = raising_seed(cells)
        first, second = record(base), record(base)
        assert first and first == second
        assert record(base + 1) != first

    def test_oom_is_permanent_not_retried(self, h2, fast_config, tmp_path):
        # Too small a heap: a *negative result*, not an error.  It must be
        # produced once, never retried, and cached like any other result.
        cell = Cell(
            spec=h2, collector="G1", heap_mb=h2.live_mb * 0.5,
            invocation=0, config=fast_config,
        )
        engine = ExecutionEngine(
            cache_dir=tmp_path, retry=RetryPolicy(retries=5, backoff_base_s=0.001)
        )
        [result] = engine.run_cells([cell])
        assert result.oom is not None
        assert engine.stats.executed == 1 and engine.stats.retries == 0

        warm = ExecutionEngine(
            cache_dir=tmp_path, retry=RetryPolicy(retries=5, backoff_base_s=0.001)
        )
        [again] = warm.run_cells([cell])
        assert again.oom == result.oom
        assert warm.stats.executed == 0 and warm.stats.negative_hits == 1


class TestTimeouts:
    def find_hang_seed(self, key):
        """A seed whose cell hangs on attempt 0 but not on attempt 1 —
        searched, not guessed, so the test is deterministic."""
        for seed in range(1000):
            if _uniform(seed, key, 0) < 0.5 and _uniform(seed, key, 1) >= 0.5:
                return seed
        raise AssertionError("no such seed in range")  # pragma: no cover

    def test_hang_times_out_then_recovers(self, lusearch, fast_config):
        cell = make_cell(lusearch, config=fast_config)
        seed = self.find_hang_seed(cell_key(cell))
        clean = ExecutionEngine().run_cells([cell])
        engine = ExecutionEngine(
            retry=RetryPolicy(retries=2, cell_timeout_s=0.5, backoff_base_s=0.001),
            injector=FaultInjector(FaultSpec(seed=seed, hang=0.5, hang_s=5.0)),
        )
        [result] = engine.run_cells([cell])
        assert engine.stats.timeouts == 1 and engine.stats.retries == 1
        assert payload(result) == payload(clean[0])

    def test_short_hang_is_mere_slowness(self, lusearch, fast_config):
        # A hang below the timeout is absorbed without any retry.
        cell = make_cell(lusearch, config=fast_config)
        seed = self.find_hang_seed(cell_key(cell))
        engine = ExecutionEngine(
            retry=RetryPolicy(retries=2, cell_timeout_s=30.0, backoff_base_s=0.001),
            injector=FaultInjector(FaultSpec(seed=seed, hang=0.5, hang_s=0.01)),
        )
        [result] = engine.run_cells([cell])
        assert engine.stats.timeouts == 0 and engine.stats.retries == 0
        assert result.ok


class TestPoolScheduling:
    """The pool scheduler must never charge queue wait against a cell's
    timeout, and a timed-out attempt must free its worker for the next
    task instead of leaving stale work queued behind it."""

    def test_queue_wait_not_charged_as_timeout(self, lusearch, fast_config):
        # 8 slow cells on 2 workers: every attempt hangs 0.2s under a
        # 0.5s per-cell timeout, so the batch needs ~0.8s of wall time —
        # far past any single deadline shared across the batch.  Each
        # attempt's clock starts worker-side when it actually begins, so
        # no cell may observe a spurious timeout (retries=0 turns one
        # into a loud CellExecutionError).
        cells = [
            make_cell(lusearch, invocation=i, config=fast_config) for i in range(8)
        ]
        clean = ExecutionEngine().run_cells(cells)
        engine = ExecutionEngine(
            jobs=2,
            retry=RetryPolicy(retries=0, cell_timeout_s=0.5),
            injector=FaultInjector(FaultSpec(hang=1.0, hang_s=0.2)),
        )
        results = engine.run_cells(cells)
        assert engine.stats.timeouts == 0 and engine.stats.gave_up == 0
        assert [payload(r) for r in results] == [payload(r) for r in clean]

    def find_pool_hang_seed(self, keys):
        """A seed under which every cell hangs on attempt 0 and runs
        clean on attempt 1 — searched, not guessed."""
        for seed in range(5000):
            injector = FaultInjector(FaultSpec(seed=seed, hang=0.5, hang_s=5.0))
            if all(
                injector.decide(k, 0) == "hang" and injector.decide(k, 1) is None
                for k in keys
            ):
                return seed
        raise AssertionError("no such seed in range")  # pragma: no cover

    def test_pool_timeout_recovers_per_cell(self, lusearch, fast_config):
        # Both cells hang past the timeout on attempt 0; each must time
        # out on its *own* clock, fire exactly one retry, and converge
        # bit-identically — with the hung attempts abandoned inside the
        # workers rather than stalling the retries behind them.
        cells = [
            make_cell(lusearch, invocation=i, config=fast_config) for i in range(2)
        ]
        seed = self.find_pool_hang_seed([cell_key(c) for c in cells])
        clean = ExecutionEngine().run_cells(cells)
        engine = ExecutionEngine(
            jobs=2,
            retry=RetryPolicy(retries=2, cell_timeout_s=0.4, backoff_base_s=0.001),
            injector=FaultInjector(FaultSpec(seed=seed, hang=0.5, hang_s=5.0)),
        )
        results = engine.run_cells(cells)
        assert engine.stats.timeouts == 2 and engine.stats.retries == 2
        assert engine.stats.gave_up == 0
        assert [payload(r) for r in results] == [payload(r) for r in clean]


class TestGracefulDegradation:
    def crashing_engine(self, retries=1, jobs=1):
        return ExecutionEngine(
            jobs=jobs,
            retry=RetryPolicy(retries=retries, backoff_base_s=0.001),
            injector=FaultInjector(FaultSpec(crash=1.0)),
        )

    def test_partial_reports_holes(self, cells):
        engine = self.crashing_engine()
        batch = engine.run_cells(cells, partial=True)
        assert isinstance(batch, PartialBatch)
        assert not batch.complete
        assert batch.results == [None] * len(cells)
        assert batch.completed() == []
        assert len(batch.holes) == len(cells)
        for hole, cell in zip(batch.holes, cells):
            assert isinstance(hole, Hole)
            assert hole.cell is cell and hole.attempts == 2
            assert "injected worker crash" in hole.error
        assert engine.stats.gave_up == len(cells)
        assert engine.stats.retries == len(cells)  # one retry each
        with pytest.raises(CellExecutionError):
            batch.raise_if_incomplete()

    def test_strict_mode_raises(self, cells):
        with pytest.raises(CellExecutionError) as err:
            self.crashing_engine().run_cells(cells)
        assert "after 2 attempt" in str(err.value)

    def test_pool_partial_reports_holes(self, cells):
        batch = self.crashing_engine(jobs=2).run_cells(cells, partial=True)
        assert len(batch.holes) == len(cells)

    def test_partial_without_resilience_changes_only_shape(self, cells):
        plain = ExecutionEngine().run_cells(cells)
        batch = ExecutionEngine().run_cells(cells, partial=True)
        assert batch.complete and not batch.holes
        assert [payload(r) for r in batch.results] == [payload(r) for r in plain]
        assert batch.raise_if_incomplete() == batch.results

    def test_cell_failed_hook_fires(self, cells):
        failed = []

        class Sink(ProgressSink):
            def cell_failed(self, cell, hole):
                failed.append((cell, hole))

        engine = self.crashing_engine()
        engine.progress = Sink()
        engine.run_cells(cells, partial=True)
        assert len(failed) == len(cells)


class TestResume:
    class InterruptAfter(ProgressSink):
        """Simulates ctrl-C mid-sweep: raise after the Nth finished cell."""

        def __init__(self, after):
            self.after = after
            self.seen = 0

        def cell_finished(self, cell, result, from_cache):
            self.seen += 1
            if self.seen >= self.after:
                raise KeyboardInterrupt

    def test_interrupted_sweep_resumes_missing_cells_only(
        self, lusearch, fast_config, tmp_path, monkeypatch
    ):
        cells = [make_cell(lusearch, invocation=i, config=fast_config) for i in range(6)]
        clean = ExecutionEngine().run_cells(cells)
        cache = tmp_path / "cache"

        first = ExecutionEngine(cache_dir=cache, progress=self.InterruptAfter(3))
        with pytest.raises(KeyboardInterrupt):
            first.run_cells(cells)
        # The sink raises from inside the 3rd cell's bookkeeping, after
        # its cache write — so 3 entries are in the cache.
        entries = ResultCache(cache)
        assert sum(entries.get(cell_key(c)) is not None for c in cells) == 3

        real = engine_mod.simulate_run
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_mod, "simulate_run", counting)
        resumed = ExecutionEngine(cache_dir=cache)
        results = resumed.run_cells(cells)
        assert len(calls) == 3  # only the missing cells re-execute
        assert resumed.stats.cached == 3 and resumed.stats.executed == 3
        assert [payload(r) for r in results] == [payload(r) for r in clean]
        # The cache now covers the whole sweep; a second resume is all hits.
        again = ExecutionEngine(cache_dir=cache)
        again.run_cells(cells)
        assert again.stats.executed == 0 and again.stats.cached == 6


class TestCorruption:
    def test_result_cache_counts_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None  # absent: a miss, not corruption
        assert cache.corrupt == 0
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.corrupt == 1

    def test_corrupt_entry_tears_file(self, tmp_path):
        target = tmp_path / "entry.pkl"
        target.write_bytes(pickle.dumps({"x": 1}))
        assert corrupt_entry(target)
        with pytest.raises(Exception):
            pickle.loads(target.read_bytes())
        assert not corrupt_entry(tmp_path / "missing.pkl")

    def test_injected_corruption_detected_and_resimulated(
        self, cells, tmp_path, capsys
    ):
        import io

        chaos = ExecutionEngine(
            cache_dir=tmp_path,
            injector=FaultInjector(FaultSpec(corrupt=1.0)),
        )
        first = chaos.run_cells(cells)
        assert chaos.stats.executed == len(cells)

        stream = io.StringIO()
        warm = ExecutionEngine(cache_dir=tmp_path, progress=LogSink(stream))
        second = warm.run_cells(cells)
        assert warm.stats.corrupt == len(cells)
        assert warm.stats.cached == 0 and warm.stats.executed == len(cells)
        assert [payload(r) for r in second] == [payload(r) for r in first]
        assert "corrupt cache entr" in stream.getvalue()


class TestChaosDrill:
    def test_drill_exercises_corruption(self, lusearch, fast_config):
        # The drill attaches a throwaway cache and re-reads the sweep
        # warm, so 'corrupt' faults — torn *after* the write — are
        # actually observed and healed instead of silently never firing.
        # Seed searched so at least one cell draws a corruption.
        from repro.harness.experiments import chaos_drill
        from repro.harness.plans import plan_lbo

        cells = plan_lbo(lusearch, ("Serial", "G1"), (2.0,), fast_config).cells()
        keys = [cell_key(c) for c in cells]
        seed = next(
            s
            for s in range(1000)
            if any(
                FaultInjector(FaultSpec.uniform(0.4, seed=s)).corrupts(k)
                for k in keys
            )
        )
        drill = chaos_drill(
            lusearch,
            multiples=(2.0,),
            config=fast_config,
            chaos_rate=0.4,
            chaos_seed=seed,
            retries=6,
            hang_s=0.01,
        )
        assert drill.ok
        assert drill.stats.corrupt > 0  # the torn entries were detected


class TestEngineFromEnv:
    def test_malformed_jobs_names_variable(self):
        with pytest.raises(ValueError) as err:
            engine_from_env({"CHOPIN_JOBS": "four"})
        message = str(err.value)
        assert "CHOPIN_JOBS" in message and "'four'" in message
        assert "CHOPIN_JOBS=4" in message  # the accepted format, by example

    def test_malformed_chaos_rate_names_variable(self):
        with pytest.raises(ValueError) as err:
            engine_from_env({"CHOPIN_CHAOS_RATE": "lots"})
        assert "CHOPIN_CHAOS_RATE" in str(err.value)

    def test_out_of_range_chaos_rate_names_variable(self):
        # 1.5 parses fine as a float; the range error must still name
        # the variable, not surface as a bare FaultSpec complaint.
        with pytest.raises(ValueError) as err:
            engine_from_env({"CHOPIN_CHAOS_RATE": "1.5"})
        message = str(err.value)
        assert "CHOPIN_CHAOS_RATE" in message and "1.5" in message
        assert "CHOPIN_CHAOS_RATE=0.1" in message  # the accepted format

    def test_resilience_vars_build_collaborators(self):
        engine = engine_from_env(
            {
                "CHOPIN_RETRIES": "2",
                "CHOPIN_CELL_TIMEOUT": "30",
                "CHOPIN_CHAOS_RATE": "0.2",
                "CHOPIN_CHAOS_SEED": "9",
            }
        )
        assert engine.resilient
        assert engine.retry.retries == 2 and engine.retry.cell_timeout_s == 30.0
        assert engine.injector.enabled and engine.injector.spec.seed == 9

    def test_defaults_stay_plain(self):
        engine = engine_from_env({})
        assert not engine.resilient and engine.jobs == 1


class TestResilienceObservability:
    def run_chaos_with_recorder(self, cells):
        recorder = Recorder()
        engine = ExecutionEngine(
            recorder=recorder,
            retry=RetryPolicy(retries=6, backoff_base_s=0.001),
            injector=FaultInjector(
                FaultSpec.uniform(0.5, seed=raising_seed(cells), hang_s=0.01)
            ),
        )
        engine.run_cells(cells)
        return engine, recorder.events()

    def test_events_recorded_and_ingested(self, cells):
        engine, events = self.run_chaos_with_recorder(cells)
        faults = [e for e in events if isinstance(e, FaultInjected)]
        retries = [e for e in events if isinstance(e, RetryAttempt)]
        assert faults, "chaos at rate 0.5 must inject something"
        assert len(retries) == engine.stats.retries

        registry = MetricsRegistry()
        registry.ingest(events)
        snapshot = registry.to_dict()
        assert snapshot["resilience.faults_injected"] == len(faults)
        assert snapshot["resilience.retries"] == len(retries)
        assert snapshot["resilience.backoff_seconds"]["count"] == len(retries)

    def test_chrome_trace_has_resilience_instants(self, cells):
        _, events = self.run_chaos_with_recorder(cells)
        document = chrome_trace(events)
        assert validate_chrome_trace(document) == []
        instants = [
            e
            for e in document["traceEvents"]
            if e.get("cat") == "resilience" and e["ph"] == "I"
        ]
        assert instants
        assert any(e["name"].startswith("fault:") for e in instants)
