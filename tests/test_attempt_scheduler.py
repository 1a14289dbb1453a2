"""The engine's two miss loops: one attempt contract, serial or pooled.

Every cache miss runs through the same attempt, admission and
failure-charging bookkeeping, either on the in-order serial loop
(``jobs=1``) or on the pool loop, which dispatches chunks of attempts.
The contract under test: the loop is invisible in the results — the
same payloads, the same holes, the same counters — and a default engine
fails cells exactly as a resilient one does.
"""

import io
import math
import pickle

import pytest

import repro.harness.engine as engine_mod
from repro import Cell, ExecutionEngine, cell_key
from repro.harness.engine import ProgressSink
from repro.resilience import (
    CellExecutionError,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    Supervisor,
)

#: Cells per sweep: enough that the first pool chunk at ``jobs=2`` holds
#: several cells (``ceil(24 / (4 * 2)) == 3``).
SWEEP = 24
FIRST_CHUNK = math.ceil(SWEEP / (4 * 2))


def make_cells(spec, config, count=SWEEP):
    return [
        Cell(
            spec=spec,
            collector="G1",
            heap_mb=spec.heap_mb_for(3.0),
            invocation=i,
            config=config,
        )
        for i in range(count)
    ]


def payload(result):
    """A cell's bit-identity fingerprint (per-cell, see test_resilience)."""
    return pickle.dumps((result.timed, result.oom))


def raises(injector, key, attempt):
    return injector.decide(key, attempt) in ("transient", "crash")


def chaos_seed(keys, rate, attempts):
    """A seed under which a first-chunk cell fails once then succeeds,
    some cell fails every attempt (a hole), and some entry gets torn —
    searched, not guessed, so every assertion below has something to
    bite on."""
    for seed in range(5000):
        injector = FaultInjector(FaultSpec.uniform(rate, seed=seed))
        if (
            any(
                raises(injector, k, 0) and not raises(injector, k, 1)
                for k in keys[:FIRST_CHUNK]
            )
            and any(all(raises(injector, k, a) for a in range(attempts)) for k in keys)
            and any(injector.corrupts(k) for k in keys)
        ):
            return seed
    raise AssertionError("no such seed in range")  # pragma: no cover


class TestChunkedPoolUnderChaos:
    def test_pool_and_serial_agree_with_the_fault_free_run(
        self, lusearch, fast_config, tmp_path
    ):
        cells = make_cells(lusearch, fast_config)
        keys = [cell_key(c) for c in cells]
        retries = 2
        seed = chaos_seed(keys, 0.6, retries + 1)
        clean = ExecutionEngine().run_cells(cells)
        outcomes = {}
        for jobs in (1, 2):
            engine = ExecutionEngine(
                jobs=jobs,
                cache_dir=tmp_path / f"jobs{jobs}",
                retry=RetryPolicy(retries=retries, backoff_base_s=0.001),
                injector=FaultInjector(FaultSpec.uniform(0.6, seed=seed, hang_s=0.01)),
            )
            first = engine.run_cells(cells, partial=True)
            holes = sorted(h.key for h in first.holes)
            assert holes  # the seed guarantees a cell that fails every attempt
            # Completed cells are bit-identical to the fault-free run.
            for baseline, result in zip(clean, first.results):
                if result is not None:
                    assert payload(result) == payload(baseline)
            # A fault re-runs only its own cell, never its chunk-mates:
            # every completed cell was executed exactly once.
            assert engine.stats.executed == len(cells) - len(holes)
            # The warm re-read observes the torn entries.
            engine.run_cells(cells, partial=True)
            stats = engine.stats
            assert stats.corrupt > 0
            outcomes[jobs] = (holes, stats.retries, stats.gave_up, stats.corrupt)
        assert outcomes[1] == outcomes[2]

    def test_supervised_pool_drain_refuses_every_unstarted_cell(
        self, lusearch, fast_config
    ):
        class DrainAfterFirst(ProgressSink):
            def __init__(self, supervisor):
                self.supervisor = supervisor

            def cell_finished(self, cell, result, from_cache):
                self.supervisor.request_drain("SIGINT")

        cells = make_cells(lusearch, fast_config, count=16)
        sup = Supervisor(stream=io.StringIO())
        engine = ExecutionEngine(
            jobs=2, supervisor=sup, progress=DrainAfterFirst(sup)
        )
        batch = engine.run_cells(cells, partial=True)
        # Supervised dispatch is one cell per task: when the first cell
        # finishes, only the other worker's cell is still running, and
        # nothing else may start.
        assert engine.stats.executed == 2
        assert engine.stats.drained == len(cells) - 2
        assert [h.reason for h in batch.holes] == ["drained"] * (len(cells) - 2)


@pytest.mark.parametrize("jobs", [1, 2])
class TestOneErrorContract:
    """A non-OOM exception on a default engine is a failed attempt, the
    same as on a resilient engine, at any ``jobs``."""

    @pytest.fixture
    def boom(self, monkeypatch):
        error = RuntimeError("simulator bug")

        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(engine_mod, "simulate_run", raising)
        return error

    def test_strict_mode_raises_cell_execution_error(
        self, jobs, boom, lusearch, fast_config
    ):
        cells = make_cells(lusearch, fast_config, count=4)
        with pytest.raises(CellExecutionError) as err:
            ExecutionEngine(jobs=jobs).run_cells(cells)
        assert err.value.attempts == 1 and "simulator bug" in str(err.value)
        cause = err.value.__cause__
        assert isinstance(cause, RuntimeError) and str(cause) == "simulator bug"
        if jobs == 1:
            assert cause is boom  # in-process: the original exception itself

    def test_partial_mode_yields_gave_up_holes(
        self, jobs, boom, lusearch, fast_config
    ):
        cells = make_cells(lusearch, fast_config, count=4)
        engine = ExecutionEngine(jobs=jobs)
        batch = engine.run_cells(cells, partial=True)
        assert batch.results == [None] * len(cells)
        assert sorted(h.key for h in batch.holes) == sorted(cell_key(c) for c in cells)
        assert {h.reason for h in batch.holes} == {"gave_up"}
        assert all(h.attempts == 1 for h in batch.holes)
        assert engine.stats.gave_up == len(cells) and engine.stats.executed == 0
