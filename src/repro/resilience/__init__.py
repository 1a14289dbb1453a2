"""repro.resilience — fault injection, retries, and supervised sweeps.

The execution engine's answer to failure at production scale, in three
parts that compose:

- :mod:`.faults` — a deterministic, seeded chaos injector
  (:class:`FaultInjector`) whose fault sequence is a pure function of
  ``(seed, cell_key, attempt)``, plus the zero-cost
  :class:`NullInjector` default;
- :mod:`.retry` — the :class:`RetryPolicy` (per-cell timeouts, bounded
  exponential backoff with deterministic jitter) and the
  transient-vs-permanent taxonomy (:func:`classify`);
- :mod:`.supervisor` — the :class:`Supervisor` that wraps a whole sweep:
  wall-clock deadline budgets (EWMA cost model), per-family circuit
  breakers with half-open probes, and graceful SIGINT/SIGTERM drains;
- :mod:`.doctor` — cache/journal self-healing behind ``chopin doctor``:
  quarantine corrupt/stale/misplaced cache entries, compact the service
  job journal, re-verify sampled cells against recomputation.

An interrupted sweep needs no resume record of its own: every finished
cell is an entry in the content-addressed result cache, so re-running
the sweep on the same cache executes only the missing cells.

Design contract, mirrored from the flight recorder: resilience is
*observational about results*.  An injected fault replaces or delays an
attempt but never perturbs a successful simulation, so a chaos run that
converges produces bit-identical results to a fault-free run — pinned by
tests, and checked in CI by the chaos smoke job.
"""

from repro.resilience.doctor import (
    CacheScan,
    JobsJournalCompaction,
    JobsJournalScan,
    VerifyReport,
    compact_jobs_journal,
    scan_cache,
    scan_jobs_journal,
    verify_cells,
)
from repro.resilience.faults import (
    EXECUTION_FAULTS,
    FAULT_KINDS,
    SERVICE_FAULTS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    NullInjector,
    NullServiceInjector,
    ServiceFaultInjector,
    ServiceFaultSpec,
    ServiceWorkerDeath,
    TransientFault,
    WorkerCrash,
    corrupt_entry,
)
from repro.resilience.retry import (
    TRANSIENT_ERRORS,
    CellExecutionError,
    CellTimeout,
    RetryPolicy,
    classify,
)
from repro.resilience.supervisor import (
    SUPERVISED_REASONS,
    CircuitBreaker,
    CostModel,
    Supervisor,
)

__all__ = [
    "CacheScan",
    "CellExecutionError",
    "CellTimeout",
    "CircuitBreaker",
    "CostModel",
    "EXECUTION_FAULTS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "JobsJournalCompaction",
    "JobsJournalScan",
    "NullInjector",
    "NullServiceInjector",
    "RetryPolicy",
    "SERVICE_FAULTS",
    "SUPERVISED_REASONS",
    "ServiceFaultInjector",
    "ServiceFaultSpec",
    "ServiceWorkerDeath",
    "Supervisor",
    "TRANSIENT_ERRORS",
    "TransientFault",
    "VerifyReport",
    "WorkerCrash",
    "classify",
    "compact_jobs_journal",
    "corrupt_entry",
    "scan_cache",
    "scan_jobs_journal",
    "verify_cells",
]
