"""Async job queue: priority FIFO, per-job state machine, JSONL journal.

A sweep submitted to the service is a *job*: a declarative
:class:`JobSpec` (benchmark, collectors, heap multiples, run config,
priority) that the server later compiles to an
:class:`~repro.harness.plans.ExperimentPlan`.  The queue owns the job
lifecycle:

``QUEUED → RUNNING → DONE / FAILED / CANCELLED / PARTIAL / DEAD_LETTER``

with three extra edges — ``QUEUED → CANCELLED`` for jobs cancelled
before a worker claims them, ``RUNNING → QUEUED`` for the requeue path
(a job whose worker died or hung is re-queued, not lost; its completed
cells are already in the shared cache so the re-run is warm), and
``RUNNING → DEAD_LETTER`` once a job has burned through ``max_requeues``
requeues — a job that keeps killing its worker stops being retried and
waits for an operator instead of wedging the pool forever.

Ordering is priority-FIFO: higher ``priority`` first, submission order
within a priority (a heap over ``(-priority, seq)``).  Workers block in
:meth:`JobQueue.claim` on a condition variable — no polling.

**Leases.** A claim grants a time-bound lease (``lease_s`` seconds) and
bumps the job's *claim epoch*.  The worker renews the lease through
:meth:`heartbeat` as it makes progress; the server's reaper thread calls
:meth:`reap` to requeue (or dead-letter) jobs whose lease expired — the
signature of a worker thread that died or hung mid-job.  The epoch
fences stale workers: a worker that hung past its lease and then woke up
again cannot :meth:`finish` or :meth:`heartbeat` the job it lost — the
queue discards the attempt and counts it in :attr:`lease_losses`.

Every transition is persisted as one JSON line in an append-only
journal: appends are line-atomic and ``fsync``'d before the transition
returns, and the reader tolerates a torn final line (the worst a crash
can cost is one transition record, and an un-journalled ``RUNNING`` just
replays as a re-queued ``QUEUED`` job).  When the active journal file
exceeds ``rotate_bytes`` it is atomically renamed to ``jobs.jsonl.<n>``
and a fresh active file started; replay folds every segment in rotation
order before the active file, so rotation never loses a transition.  On
construction the queue replays the journal through :func:`fold_journal`
— the same fold ``chopin doctor`` reports from: the latest state per job
wins, non-terminal jobs go back on the heap, terminal jobs are retained
with their persisted result payloads so a restarted service still
answers ``GET /jobs/<id>/result``.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.plans import PLAN_KINDS

#: Every state a job can be in, in lifecycle order.
JOB_STATES: Tuple[str, ...] = (
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "PARTIAL",
    "DEAD_LETTER",
)

#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {"DONE", "FAILED", "CANCELLED", "PARTIAL", "DEAD_LETTER"}
)

#: Legal state-machine edges (see the module docstring for the three
#: non-obvious ones: pre-claim cancel, requeue, and dead-letter).
_TRANSITIONS: Dict[str, frozenset] = {
    "QUEUED": frozenset({"RUNNING", "CANCELLED"}),
    "RUNNING": frozenset(
        {"DONE", "FAILED", "CANCELLED", "PARTIAL", "QUEUED", "DEAD_LETTER"}
    ),
    "DONE": frozenset(),
    "FAILED": frozenset(),
    "CANCELLED": frozenset(),
    "PARTIAL": frozenset(),
    "DEAD_LETTER": frozenset(),
}


class JobStateError(Exception):
    """An illegal state-machine transition (or an unknown job id)."""


@dataclass(frozen=True)
class JobSpec:
    """What to sweep — the declarative half of a job, JSON round-trippable.

    Mirrors the ``chopin lbo`` / ``latency`` / ``minheap`` knobs: the
    server compiles a spec to the same
    :func:`~repro.harness.experiments.run_campaign` call the one-shot
    CLI makes, which is what makes the HTTP path bit-identical to it.
    ``kind`` selects the campaign family and defaults to ``"lbo"`` —
    journals written before the field existed replay unchanged.
    ``priority`` orders the queue (higher first); ``budget_s`` caps the
    job's wall-clock through its per-job supervisor.
    """

    benchmark: str
    collectors: Tuple[str, ...] = ()
    multiples: Tuple[float, ...] = ()
    invocations: int = 3
    scale: float = 1.0
    fidelity: Optional[str] = None
    priority: int = 0
    budget_s: Optional[float] = None
    kind: str = "lbo"

    def to_payload(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "collectors": list(self.collectors),
            "multiples": list(self.multiples),
            "invocations": self.invocations,
            "scale": self.scale,
            "fidelity": self.fidelity,
            "priority": self.priority,
            "budget_s": self.budget_s,
            "kind": self.kind,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Validate and build a spec from a JSON object (an HTTP body or
        a journal line).  Errors name the field and the accepted format —
        the HTTP layer forwards them verbatim as 400 bodies."""
        if not isinstance(payload, dict):
            raise ValueError(f"job spec must be a JSON object, got {type(payload).__name__}")
        known = {
            "benchmark", "collectors", "multiples", "invocations",
            "scale", "fidelity", "priority", "budget_s", "kind",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(
                f"unknown job spec field(s): {', '.join(unknown)}; "
                f"accepted: {', '.join(sorted(known))}"
            )
        benchmark = payload.get("benchmark")
        if not isinstance(benchmark, str) or not benchmark:
            raise ValueError("job spec field 'benchmark' must be a workload name")
        collectors = payload.get("collectors") or ()
        if not isinstance(collectors, (list, tuple)) or not all(
            isinstance(c, str) for c in collectors
        ):
            raise ValueError(
                "job spec field 'collectors' must be a list of collector names"
            )
        multiples = payload.get("multiples") or ()
        if not isinstance(multiples, (list, tuple)) or not all(
            isinstance(m, (int, float)) and not isinstance(m, bool) and m > 0
            for m in multiples
        ):
            raise ValueError(
                "job spec field 'multiples' must be a list of positive numbers"
            )
        invocations = payload.get("invocations", 3)
        if not isinstance(invocations, int) or isinstance(invocations, bool) or invocations < 1:
            raise ValueError(
                "job spec field 'invocations' must be a positive integer (e.g. 3)"
            )
        scale = payload.get("scale", 1.0)
        if not isinstance(scale, (int, float)) or isinstance(scale, bool) or scale <= 0:
            raise ValueError(
                "job spec field 'scale' must be a positive number (e.g. 0.1)"
            )
        fidelity = payload.get("fidelity")
        if fidelity in ("auto", ""):
            fidelity = None
        if fidelity is not None and fidelity not in ("aggregate", "full"):
            raise ValueError(
                "job spec field 'fidelity' must be auto, aggregate, or full"
            )
        priority = payload.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValueError("job spec field 'priority' must be an integer (e.g. 0)")
        budget_s = payload.get("budget_s")
        if budget_s is not None and (
            not isinstance(budget_s, (int, float))
            or isinstance(budget_s, bool)
            or budget_s <= 0
        ):
            raise ValueError(
                "job spec field 'budget_s' must be a positive number of seconds"
            )
        kind = payload.get("kind", "lbo")
        if kind not in PLAN_KINDS:
            raise ValueError(
                f"job spec field 'kind' must be one of: {', '.join(PLAN_KINDS)}"
            )
        return cls(
            benchmark=benchmark,
            collectors=tuple(collectors),
            multiples=tuple(float(m) for m in multiples),
            invocations=invocations,
            scale=float(scale),
            fidelity=fidelity,
            priority=priority,
            budget_s=budget_s,
            kind=kind,
        )


@dataclass
class Job:
    """One job's live record: spec plus everything the lifecycle added.

    ``holes`` are JSON-ready dicts (``key``/``reason``/``detail``) for
    the status payload; ``result`` is the terminal result payload
    (rendered tables plus structured curves); ``stats`` the engine-stats
    delta of the run.  ``cancel_requested`` is the soft-cancel flag for
    a ``RUNNING`` job — the server turns it into a supervisor drain.
    ``failure`` is the structured error payload of a contained worker
    crash (``{"type", "message", "worker"}``); ``claim_epoch`` and
    ``lease_expires`` belong to the lease machinery (module docstring).
    """

    id: str
    spec: JobSpec
    seq: int
    state: str = "QUEUED"
    error: Optional[str] = None
    cells: int = 0
    holes: List[dict] = field(default_factory=list)
    stats: Optional[dict] = None
    result: Optional[dict] = None
    requeues: int = 0
    cancel_requested: bool = False
    failure: Optional[dict] = None
    claim_epoch: int = 0
    lease_expires: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_payload(self) -> dict:
        """The ``GET /jobs/<id>`` body (everything but the result)."""
        return {
            "id": self.id,
            "state": self.state,
            "benchmark": self.spec.benchmark,
            "kind": self.spec.kind,
            "priority": self.spec.priority,
            "cells": self.cells,
            "holes": list(self.holes),
            "stats": self.stats,
            "error": self.error,
            "failure": self.failure,
            "requeues": self.requeues,
            "cancel_requested": self.cancel_requested,
        }


def journal_segments(path: Path) -> List[Path]:
    """Rotated segments of the journal at ``path``, in rotation (=
    chronological) order."""
    found = []
    for candidate in path.parent.glob(path.name + ".*"):
        suffix = candidate.name[len(path.name) + 1:]
        if suffix.isdigit():
            found.append((int(suffix), candidate))
    return [segment for _, segment in sorted(found)]


@dataclass
class JournalFold:
    """A job journal replayed across every rotation segment, last state
    winning — before any restart policy (requeue or dead-letter of
    ``RUNNING`` jobs) is applied."""

    jobs: Dict[str, Job] = field(default_factory=dict)  # submission order
    idempotency: Dict[str, str] = field(default_factory=dict)  # key -> job id
    segments: List[Path] = field(default_factory=list)
    seq: int = 0  # highest job sequence number seen
    lines: int = 0  # non-blank lines read
    torn: int = 0  # unparseable lines, or lines without a job id
    dropped: int = 0  # lines for a job whose submit was lost or invalid
    torn_tail: bool = False  # the active file ends mid-line


def fold_journal(path: Path) -> JournalFold:
    """Fold the journal at ``path`` (segments, then the active file) into
    the latest state per job.  Torn, foreign, and orphaned lines are
    counted, never raised."""
    fold = JournalFold(segments=journal_segments(path))
    for source in fold.segments + [path]:
        try:
            text = source.read_text()
        except OSError:
            continue
        fold.torn_tail = source == path and bool(text) and not text.endswith("\n")
        for line in text.splitlines():
            if line.strip():
                fold.lines += 1
                _fold_line(fold, line)
    return fold


def _fold_line(fold: JournalFold, line: str) -> None:
    try:
        record = json.loads(line)
    except ValueError:
        fold.torn += 1  # torn line from an interrupted writer
        return
    job_id = record.get("id") if isinstance(record, dict) else None
    if not isinstance(job_id, str):
        fold.torn += 1
        return
    job = fold.jobs.get(job_id)
    if job is None:
        try:
            spec = JobSpec.from_payload(record.get("spec"))
        except ValueError:
            # A transition for a job whose submit line was lost, or a
            # foreign or corrupt submit line.
            fold.dropped += 1
            return
        seq = record.get("seq")
        seq = seq if isinstance(seq, int) else fold.seq + 1
        job = fold.jobs[job_id] = Job(id=job_id, spec=spec, seq=seq)
        fold.seq = max(fold.seq, seq)
    state = record.get("state")
    if isinstance(state, str) and state in JOB_STATES:
        job.state = state
    if record.get("requeued"):
        job.requeues += 1
    requeues = record.get("requeues")
    if isinstance(requeues, int) and not isinstance(requeues, bool):
        job.requeues = requeues  # compacted snapshot carries the count
    key = record.get("idempotency_key")
    if isinstance(key, str) and key:
        fold.idempotency[key] = job_id
    for field_name in ("error", "cells", "holes", "stats", "result", "failure"):
        if field_name in record:
            setattr(job, field_name, record[field_name])


class JobQueue:
    """Priority-FIFO queue of :class:`Job` with a journaled state machine.

    ``journal`` is the JSONL path (``None`` = in-memory only, for
    tests); an existing journal is replayed on construction — see the
    module docstring for the resume semantics.  ``lease_s`` /
    ``max_requeues`` configure the lease machinery; ``clock`` is
    injectable for tests (monotonic seconds).  ``rotate_bytes`` bounds
    the active journal file (``None`` = never rotate).  ``injector`` is
    the optional service-level fault injector (duck-typed: only
    ``tears_append(record)`` is consulted) used by the chaos drill to
    tear journal appends deterministically.  All methods are
    thread-safe; :meth:`claim` blocks until a job or :meth:`close`.
    """

    def __init__(
        self,
        journal: Optional[Union[str, Path]] = None,
        lease_s: float = 60.0,
        max_requeues: int = 3,
        clock: Callable[[], float] = time.monotonic,
        rotate_bytes: Optional[int] = None,
        injector: Optional[object] = None,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s!r}")
        if max_requeues < 0:
            raise ValueError(f"max_requeues must be >= 0, got {max_requeues!r}")
        self.path = Path(journal) if journal is not None else None
        self.lease_s = lease_s
        self.max_requeues = max_requeues
        self._clock = clock
        self.rotate_bytes = rotate_bytes
        self._injector = injector
        self._cond = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = 0
        self._closed = False
        self._torn_tail = False
        self._segment = 0  # highest rotated-segment index on disk
        self._idempotency: Dict[str, str] = {}  # Idempotency-Key -> job id
        self.requeued = 0  # RUNNING jobs inherited from a dead process
        self.renewals = 0  # successful heartbeat lease renewals
        self.lease_losses = 0  # stale-epoch heartbeats/finishes discarded
        self.reaped = 0  # expired leases requeued by reap()
        self.dead_lettered = 0  # jobs parked terminally by reap()
        if self.path is not None:
            self._replay()

    # ------------------------------------------------------------------
    # Journal (fsync'd line-atomic appends, torn-tail tolerant replay,
    # size-bounded rotation)

    def _segments(self) -> List[Path]:
        """Rotated journal segments in rotation (= chronological) order."""
        return journal_segments(self.path) if self.path is not None else []

    def _append(self, record: dict) -> None:
        if self.path is None:
            return
        line = json.dumps(record, sort_keys=True)
        if self._injector is not None and self._injector.tears_append(record):
            # Chaos drill: simulate a crash mid-append — half the line,
            # no newline, no rotation.  The in-memory state already has
            # the transition; only a restart sees the torn journal.
            line = line[: max(1, len(line) // 2)]
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with self.path.open("a") as fh:
                    if self._torn_tail:
                        fh.write("\n")
                    fh.write(line)
                    fh.flush()
                    os.fsync(fh.fileno())
                self._torn_tail = True
            except OSError:
                pass
            return
        if self._torn_tail:
            line = "\n" + line
            self._torn_tail = False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
                size = fh.tell()
        except OSError:
            return  # the journal accelerates restart, it is not correctness
        if self.rotate_bytes is not None and size >= self.rotate_bytes:
            self._rotate()

    def _rotate(self) -> None:
        """Seal the active journal file as the next numbered segment.

        ``os.replace`` is atomic, so a crash leaves either the old
        active file or the new segment — never a half state — and replay
        finds every line either way.
        """
        self._segment += 1
        try:
            os.replace(self.path, self.path.with_name(f"{self.path.name}.{self._segment}"))
        except OSError:
            self._segment -= 1

    def _replay(self) -> None:
        fold = fold_journal(self.path)
        self._jobs, self._idempotency, self._seq = fold.jobs, fold.idempotency, fold.seq
        self._torn_tail = fold.torn_tail
        if fold.segments:
            self._segment = int(fold.segments[-1].name.rsplit(".", 1)[1])
        # Jobs the dead process was running resume as QUEUED — their
        # completed cells are in the shared cache, so the re-run is warm —
        # unless they already burned their requeue budget, in which case
        # they dead-letter rather than crash-loop the restarted service.
        for job in self._jobs.values():
            if job.state == "RUNNING":
                if job.requeues >= self.max_requeues:
                    job.state = "DEAD_LETTER"
                    job.error = self._dead_letter_error(job)
                    self.dead_lettered += 1
                    self._append(
                        {"id": job.id, "state": "DEAD_LETTER", "error": job.error}
                    )
                    continue
                job.state = "QUEUED"
                job.requeues += 1
                self.requeued += 1
                self._append({"id": job.id, "state": "QUEUED", "requeued": True})
            if job.state == "QUEUED":
                heapq.heappush(self._heap, (-job.spec.priority, job.seq, job.id))

    # ------------------------------------------------------------------
    # Producer side

    def submit(self, spec: JobSpec) -> Job:
        """Enqueue a job; returns it with its assigned id, journalled."""
        return self.submit_idempotent(spec)[0]

    def submit_idempotent(
        self, spec: JobSpec, idempotency_key: Optional[str] = None
    ) -> Tuple[Job, bool]:
        """Enqueue a job, deduplicating on ``idempotency_key``.

        Returns ``(job, created)``: a key the queue has already seen
        returns the original job with ``created=False`` instead of
        double-enqueuing — which is what makes a client-side submit
        retry safe.  The key is journalled with the submit record so the
        dedup map survives restart.
        """
        with self._cond:
            if self._closed:
                raise JobStateError("queue is closed")
            if idempotency_key:
                existing = self._idempotency.get(idempotency_key)
                if existing is not None and existing in self._jobs:
                    return self._jobs[existing], False
            self._seq += 1
            job = Job(id=f"job-{self._seq:06d}", spec=spec, seq=self._seq)
            self._jobs[job.id] = job
            heapq.heappush(self._heap, (-spec.priority, job.seq, job.id))
            record = {
                "id": job.id,
                "seq": job.seq,
                "state": "QUEUED",
                "spec": spec.to_payload(),
            }
            if idempotency_key:
                self._idempotency[idempotency_key] = job.id
                record["idempotency_key"] = idempotency_key
            self._append(record)
            self._cond.notify()
            return job, True

    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job.  ``QUEUED`` jobs go straight to ``CANCELLED``
        (returns ``"cancelled"``); ``RUNNING`` jobs get the soft flag
        (returns ``"cancelling"`` — the server drains the job's
        supervisor and the worker records the terminal state); terminal
        jobs return ``None`` (nothing to do)."""
        with self._cond:
            job = self._require(job_id)
            if job.state == "QUEUED":
                self._transition_locked(job, "CANCELLED", error="cancelled before start")
                return "cancelled"
            if job.state == "RUNNING":
                job.cancel_requested = True
                return "cancelling"
            return None

    # ------------------------------------------------------------------
    # Worker side

    def claim(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until a job is available, claim it (→ ``RUNNING``), and
        return it; ``None`` on timeout or once the queue is closed.  The
        claim grants a ``lease_s`` lease and bumps the job's claim epoch
        — snapshot ``job.claim_epoch`` immediately and pass it to
        :meth:`heartbeat`/:meth:`finish` so a lost lease fences you."""
        with self._cond:
            while True:
                job = self._pop_locked()
                if job is not None:
                    job.claim_epoch += 1
                    job.lease_expires = self._clock() + self.lease_s
                    self._transition_locked(job, "RUNNING")
                    return job
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    return None

    def _pop_locked(self) -> Optional[Job]:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs[job_id]
            if job.state == "QUEUED":  # skip lazily-removed (cancelled) entries
                return job
        return None

    def heartbeat(self, job_id: str, epoch: Optional[int] = None) -> bool:
        """Renew a ``RUNNING`` job's lease; returns whether the renewal
        landed.  ``False`` means the lease is lost — the job was reaped
        (requeued or dead-lettered) or finished under another epoch —
        and the worker should treat its in-flight run as abandoned."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.state != "RUNNING":
                if job is not None:
                    self.lease_losses += 1
                return False
            if epoch is not None and epoch != job.claim_epoch:
                self.lease_losses += 1
                return False
            job.lease_expires = self._clock() + self.lease_s
            self.renewals += 1
            return True

    def reap(self) -> List[Job]:
        """Requeue (or dead-letter) every ``RUNNING`` job whose lease
        expired; returns the jobs touched.  Called periodically by the
        server's reaper thread; heartbeats are not journalled, so an
        expired lease is purely an in-memory observation — the journal
        only records the resulting transition."""
        with self._cond:
            now = self._clock()
            touched: List[Job] = []
            for job in list(self._jobs.values()):
                if job.state != "RUNNING":
                    continue
                if job.lease_expires is None or job.lease_expires > now:
                    continue
                if job.requeues >= self.max_requeues:
                    error = self._dead_letter_error(job)
                    self._transition_locked(job, "DEAD_LETTER", error=error)
                    job.error = error
                    self.dead_lettered += 1
                else:
                    job.requeues += 1
                    self.reaped += 1
                    job.lease_expires = None
                    self._transition_locked(job, "QUEUED", requeued=True)
                    heapq.heappush(self._heap, (-job.spec.priority, job.seq, job.id))
                    self._cond.notify()
                touched.append(job)
            return touched

    def _dead_letter_error(self, job: Job) -> str:
        return (
            f"dead-lettered after {job.requeues} requeue(s): the worker "
            f"lease ({self.lease_s:g}s) expired {job.requeues + 1} times — "
            f"the job keeps killing or hanging its worker; inspect it and "
            f"resubmit (max_requeues={self.max_requeues})"
        )

    def finish(
        self,
        job_id: str,
        state: str,
        error: Optional[str] = None,
        cells: int = 0,
        holes: Optional[Sequence[dict]] = None,
        stats: Optional[dict] = None,
        result: Optional[dict] = None,
        failure: Optional[dict] = None,
        epoch: Optional[int] = None,
    ) -> Optional[Job]:
        """Record a ``RUNNING`` job's terminal outcome, journalled with
        its full payload so a restarted service still serves it.

        With ``epoch`` set, a completion whose claim epoch is no longer
        current — the lease expired and the reaper requeued or
        dead-lettered the job — is silently discarded (returns ``None``
        and counts a lease loss) rather than clobbering the new owner's
        run.  Without ``epoch`` the legacy unfenced behavior applies.
        """
        if state not in TERMINAL_STATES:
            raise JobStateError(f"{state!r} is not a terminal state")
        with self._cond:
            job = self._require(job_id)
            if epoch is not None and (
                epoch != job.claim_epoch or job.state != "RUNNING"
            ):
                self.lease_losses += 1
                return None
            job.error = error
            job.cells = cells
            job.holes = list(holes or [])
            job.stats = stats
            job.result = result
            job.failure = failure
            job.lease_expires = None
            self._transition_locked(
                job,
                state,
                error=error,
                cells=cells,
                holes=job.holes,
                stats=stats,
                result=result,
                failure=failure,
            )
            return job

    def _transition_locked(self, job: Job, state: str, **extra) -> None:
        if state not in _TRANSITIONS.get(job.state, frozenset()):
            raise JobStateError(
                f"{job.id}: illegal transition {job.state} -> {state}"
            )
        job.state = state
        record = {"id": job.id, "state": state}
        record.update({k: v for k, v in extra.items() if v is not None})
        self._append(record)

    # ------------------------------------------------------------------
    # Introspection

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobStateError(f"unknown job id {job_id!r}")
        return job

    def get(self, job_id: str) -> Job:
        with self._cond:
            return self._require(job_id)

    def jobs(self) -> List[Job]:
        """Every known job, submission order."""
        with self._cond:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    @property
    def depth(self) -> int:
        """Jobs waiting to be claimed."""
        with self._cond:
            return sum(1 for j in self._jobs.values() if j.state == "QUEUED")

    @property
    def running(self) -> int:
        with self._cond:
            return sum(1 for j in self._jobs.values() if j.state == "RUNNING")

    @property
    def dead_letters(self) -> int:
        """Jobs parked in ``DEAD_LETTER`` awaiting operator review."""
        with self._cond:
            return sum(1 for j in self._jobs.values() if j.state == "DEAD_LETTER")

    def close(self) -> None:
        """Stop claim(): blocked workers wake up and return ``None``."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
