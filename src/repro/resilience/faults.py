"""Deterministic, seeded fault injection for the execution engine.

A benchmarking harness that cannot survive failure cannot be trusted at
production scale: a single crashed worker, hung invocation, or torn
result file must not cost a thousand-cell sweep.  But resilience code
that is never exercised is resilience theatre — so this module makes
failure *reproducible*.  Every fault decision is a pure function of
``(seed, cell_key, attempt)``: run the same chaos sweep twice and the
identical fault sequence fires both times, which is what lets tests pin
"a faulted run with retries converges to bit-identical results".

Four fault kinds, each standing in for a real-JVM harness failure
(see DESIGN.md for the mapping):

- ``transient`` — a spurious exception from the invocation (flaky
  infrastructure: a lost perf-counter read, a dropped connection);
- ``crash`` — the forked JVM process dying abruptly (OOM-killed by the
  kernel, segfault in native code), surfaced as :class:`WorkerCrash`
  raised from the worker;
- ``hang`` — an invocation that stops making progress (deadlocked
  barrier, livelocked GC); injected as a real ``time.sleep`` so per-cell
  timeouts have something true to measure;
- ``corrupt`` — a torn result file (power loss mid-write, disk rot):
  the freshly-written cache entry is garbled *after* the write, so the
  next read exercises the corruption-detection path.

Injection is off by default via :class:`NullInjector` (mirroring the
flight recorder's ``NullRecorder``): an attempt without chaos pays one
``enabled`` check and nothing else.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

#: Execution-fault kinds, in decision order (the order partitions the
#: unit interval, so it is part of the determinism contract).
EXECUTION_FAULTS: Tuple[str, ...] = ("transient", "crash", "hang")

#: All injectable fault kinds, execution faults plus cache corruption.
FAULT_KINDS: Tuple[str, ...] = EXECUTION_FAULTS + ("corrupt",)


class InjectedFault(Exception):
    """Base of all injector-raised failures (always retry-worthy)."""


class TransientFault(InjectedFault):
    """A spurious, self-healing failure: succeeds on retry."""


class WorkerCrash(InjectedFault):
    """The worker executing a cell died abruptly (stands in for a forked
    JVM being OOM-killed or segfaulting under the harness)."""


def _uniform(*parts: object) -> float:
    """A uniform [0, 1) draw that is a pure function of its labels.

    Stable across processes and Python versions (sha256, not ``hash``),
    which is what makes chaos runs replayable bit-for-bit.
    """
    digest = hashlib.sha256("\x1f".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") / 2.0 ** 64


@dataclass(frozen=True)
class FaultSpec:
    """Per-kind fault probabilities plus the seed that fixes the draw.

    Probabilities are per *attempt* for execution faults (a retried cell
    rolls fresh dice) and per *write* for ``corrupt``.  ``hang_s`` is how
    long an injected hang sleeps — keep it above the cell timeout to
    exercise timeout recovery, below it to inject mere slowness.
    """

    seed: int = 0
    transient: float = 0.0
    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    hang_s: float = 0.25

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} fault rate must be in [0, 1], got {rate}")
        if self.transient + self.crash + self.hang > 1.0:
            raise ValueError("execution fault rates cannot sum past 1.0")
        if self.hang_s < 0:
            raise ValueError("hang_s cannot be negative")

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, hang_s: float = 0.25) -> "FaultSpec":
        """Split one overall chaos rate evenly across every fault kind —
        what ``--chaos-rate`` builds."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"chaos rate must be in [0, 1], got {rate}")
        share = rate / len(FAULT_KINDS)
        return cls(
            seed=seed,
            transient=share,
            crash=share,
            hang=share,
            corrupt=share,
            hang_s=hang_s,
        )

    @property
    def active(self) -> bool:
        """True when any kind can actually fire."""
        return any(getattr(self, kind) > 0.0 for kind in FAULT_KINDS)


class NullInjector:
    """The zero-cost default: never injects anything.

    ``enabled`` is False so the engine can skip the chaos machinery with
    a single attribute check — the same pattern as
    :class:`repro.observability.NullRecorder`.
    """

    enabled: bool = False
    spec: Optional[FaultSpec] = None

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The execution fault to inject for this attempt (always None)."""
        return None

    def corrupts(self, key: str) -> bool:
        """Whether to garble this key's freshly-written cache entry."""
        return False

    def fire(self, kind: str, key: str, attempt: int) -> None:
        """Carry out an injected execution fault (no-op here)."""


class FaultInjector(NullInjector):
    """Seeded chaos: decides and carries out faults deterministically.

    ``decide`` partitions one uniform draw per ``(seed, key, attempt)``
    into kind intervals sized by the spec's rates, so the fault sequence
    for a sweep is a pure function of the chaos seed and the cell keys —
    independent of scheduling, parallelism, and wall clock.
    """

    enabled = True

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """Which execution fault (if any) fires for this attempt."""
        u = _uniform(self.spec.seed, key, attempt)
        edge = 0.0
        for kind in EXECUTION_FAULTS:
            edge += getattr(self.spec, kind)
            if u < edge:
                return kind
        return None

    def corrupts(self, key: str) -> bool:
        """Whether this key's cache entry gets torn after being written.

        Drawn from a separate label so corruption is independent of the
        execution-fault stream for the same cell.
        """
        return _uniform(self.spec.seed, key, "corrupt") < self.spec.corrupt

    def fire(self, kind: str, key: str, attempt: int) -> None:
        """Carry out one injected execution fault.

        Runs *inside* the worker (in-process or pool child), before the
        simulation starts, so a fault never perturbs a result — it only
        replaces or delays it.  ``transient`` and ``crash`` raise;
        ``hang`` sleeps ``hang_s`` of real time and then lets the cell
        proceed, which a per-cell timeout converts into a retry.

        A hang honours the timeout runner's abandonment flag (the
        ``abandoned`` event :func:`repro.harness.engine._call_with_timeout`
        pins to the attempt thread): once the parent has charged the
        timeout and moved on, the sleep wakes immediately so the
        abandoned thread exits instead of leaking for the rest of
        ``hang_s``.
        """
        if kind == "transient":
            raise TransientFault(
                f"injected transient fault (cell {key[:12]}, attempt {attempt})"
            )
        if kind == "crash":
            raise WorkerCrash(
                f"injected worker crash (cell {key[:12]}, attempt {attempt})"
            )
        if kind == "hang":
            abandoned = getattr(threading.current_thread(), "abandoned", None)
            if abandoned is None:
                time.sleep(self.spec.hang_s)
            else:
                abandoned.wait(self.spec.hang_s)
            return
        raise ValueError(f"unknown fault kind {kind!r}")


# ----------------------------------------------------------------------
# Service-level faults (the `chopin chaos --service` drill)

#: Service-fault kinds: failures of the *daemon*, not of a cell.
SERVICE_FAULTS: Tuple[str, ...] = (
    "worker_death",
    "heartbeat_stall",
    "torn_append",
    "shard_corrupt",
)


class ServiceWorkerDeath(BaseException):
    """An injected death of a service worker thread *mid-job*.

    Deliberately a ``BaseException``: the worker's own crash-containment
    ``except Exception`` must not catch it — a dead thread marks
    nothing, and the job it was holding is recovered by the lease
    reaper, which is exactly the path the drill proves.
    """


@dataclass(frozen=True)
class ServiceFaultSpec:
    """Per-kind service-fault budgets plus the seed that fixes the draws.

    Unlike :class:`FaultSpec`, kinds here are *counts*, not
    probabilities: ``worker_death=1`` kills the worker exactly once per
    job (on its first execution), which is what makes the service drill
    deterministic — every armed fault is guaranteed to fire, and the
    seed only picks *where* (the mid-job cell index, the corrupted
    shard entries).
    """

    seed: int = 0
    worker_death: int = 0  # mid-job worker deaths per job
    heartbeat_stall: int = 0  # executions per job with a stalled lease
    torn_append: int = 0  # terminal journal appends torn, service-wide
    shard_corrupt: int = 0  # cache entries torn by pick_corrupt()

    def __post_init__(self) -> None:
        for kind in SERVICE_FAULTS:
            count = getattr(self, kind)
            if not isinstance(count, int) or count < 0:
                raise ValueError(
                    f"{kind} fault budget must be a non-negative integer, got {count!r}"
                )

    @property
    def active(self) -> bool:
        return any(getattr(self, kind) > 0 for kind in SERVICE_FAULTS)


class NullServiceInjector:
    """The zero-cost default: no service faults, ever."""

    enabled: bool = False
    spec: Optional[ServiceFaultSpec] = None

    def death_cell(self, job_id: str, total_cells: int) -> Optional[int]:
        """1-based cell count after which the worker dies (None = never)."""
        return None

    def stalls(self, job_id: str) -> bool:
        """Whether this execution's lease heartbeats stall mid-job."""
        return False

    def tears_append(self, record: dict) -> bool:
        """Whether to tear this journal append (crash mid-write)."""
        return False

    def pick_corrupt(self, paths: list) -> list:
        """Which of these cache-entry paths to tear (always none)."""
        return []


class ServiceFaultInjector(NullServiceInjector):
    """Seeded service chaos: every armed fault fires, the seed picks where.

    Budgets are tracked per ``(kind, label)`` — e.g. ``worker_death=2``
    kills a job's worker on its first two executions and then lets the
    third run to completion, which is how the drill walks a job to
    ``DEAD_LETTER`` at exactly ``max_requeues``.  ``death_points``
    records where each death fired so the drill can assert the warm
    re-run cached exactly those cells.
    """

    enabled = True

    def __init__(self, spec: ServiceFaultSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._spent: dict = {}
        self.death_points: dict = {}  # job id -> cells completed before death

    def _take(self, kind: str, label: str) -> bool:
        """Consume one unit of the ``(kind, label)`` budget if any is left."""
        budget = getattr(self.spec, kind)
        if budget <= 0:
            return False
        with self._lock:
            spent = self._spent.get((kind, label), 0)
            if spent >= budget:
                return False
            self._spent[(kind, label)] = spent + 1
            return True

    def death_cell(self, job_id: str, total_cells: int) -> Optional[int]:
        if total_cells < 1 or not self._take("worker_death", job_id):
            return None
        # Die strictly mid-job: after at least one cell has completed
        # (so the warm re-run has something to cache-hit) and no later
        # than the last cell's completion (so the job never finishes).
        point = 1 + int(
            _uniform(self.spec.seed, "worker_death", job_id) * total_cells
        ) % total_cells
        self.death_points[job_id] = point
        return point

    def stalls(self, job_id: str) -> bool:
        return self._take("heartbeat_stall", job_id)

    def tears_append(self, record: dict) -> bool:
        # Only terminal-transition records are worth tearing: they carry
        # the result payload, so losing one forces the restarted service
        # to re-run the job — warm — which is the recovery path under test.
        if "spec" in record or record.get("state") not in (
            "DONE", "PARTIAL", "FAILED",
        ):
            return False
        return self._take("torn_append", "journal")

    def pick_corrupt(self, paths: list) -> list:
        """A seeded, order-independent sample of cache entries to tear."""
        if self.spec.shard_corrupt <= 0 or not paths:
            return []
        ranked = sorted(
            paths, key=lambda p: _uniform(self.spec.seed, "shard_corrupt", Path(p).name)
        )
        return ranked[: self.spec.shard_corrupt]


def corrupt_entry(path: Union[str, Path]) -> bool:
    """Tear a cache entry the way a crashed writer would: truncate it
    mid-stream and flip its leading bytes.  Returns False when the entry
    does not exist (nothing to corrupt)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return False
    torn = b"\x00CHAOS\x00" + raw[: max(1, len(raw) // 2)]
    try:
        path.write_bytes(torn)
    except OSError:
        return False
    return True
