"""Typed flight-recorder events and the bounded-ring :class:`Recorder`.

The paper's analyses all start from run-time observability: JVMTI pause
capture for LBO (Section 6.2), GC-log review (Section 6.3), and perf
counters for the nominal statistics.  This module is the repro's
JFR-analogue event model — a small vocabulary of typed events spanning
every layer of the system:

- simulator events (:class:`IterationSpan`, :class:`GcPause`,
  :class:`ConcurrentSpan`, :class:`AllocationStall`,
  :class:`CompileWarmup`) describe what happened *inside* one simulated
  JVM invocation;
- engine events (:class:`BatchSpan`, :class:`CellSpan`,
  :class:`CacheHit`, :class:`CacheMiss`) describe how a sweep was
  scheduled across workers and served from the result cache;
- resilience events (:class:`FaultInjected`, :class:`RetryAttempt`)
  describe what chaos was injected into a cell and how the retry policy
  recovered, so a chaos run is traceable end to end in ``chopin trace``;
- supervision events (:class:`BudgetExceeded`, :class:`BreakerOpened`,
  :class:`DrainStarted`) describe why the supervisor refused work — a
  cell the deadline budget could not afford, a workload×collector family
  whose circuit breaker tripped, or a signal-initiated graceful drain;
- planner events (:class:`PlannerRound`, :class:`CellGraded`) describe
  the adaptive planner's propose→execute→refit rounds and the CV-based
  validity grade attached to every measured sweep point;
- service events (:class:`JobSpan`, :class:`QueueDepth`) describe the
  sweep service's job pipeline: one span per job from claim to terminal
  state, and queue-depth samples at every queue transition.

Every timestamp is **simulated time in seconds** — never wall clock — so
a recording is a deterministic function of the experiment coordinates,
exactly like the results themselves.  The one documented exception is
the service events, whose timestamps are wall seconds since service
start: a job queue is a real-time phenomenon, and job latency in wall
time is what its operator needs (see :mod:`repro.service.server`).  ``track`` groups events onto
display tracks (one per cell in engine recordings) and ``worker`` names
the engine worker a cell was attributed to (``CACHE_WORKER`` for
zero-work cache hits).

Recording is opt-in: everything defaults to the :class:`NullRecorder`,
whose ``emit`` is a no-op and whose ``enabled`` flag lets call sites skip
event construction entirely, so the instrumented code paths cost nothing
when nobody is listening.  The real :class:`Recorder` is a bounded ring —
like JFR's in-memory buffers, the newest events win when it overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - 3.7 fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


#: ``CellSpan.worker`` value for cells served from the result cache — they
#: occupy no worker time, so they are attributed to a pseudo-worker.
CACHE_WORKER = -1


@dataclass(frozen=True)
class TraceEvent:
    """Base of all flight-recorder events: a point in simulated time.

    ``ts`` is simulated seconds from the start of the recording; ``track``
    is the display track the event belongs to (0 when untracked).
    """

    ts: float
    track: int = 0

    def __post_init__(self) -> None:
        if self.ts < 0:
            raise ValueError("event timestamps cannot be negative")


@dataclass(frozen=True)
class SpanEvent(TraceEvent):
    """An event with duration: occupies ``[ts, ts + dur]`` on its track."""

    dur: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dur < 0:
            raise ValueError("span durations cannot be negative")

    @property
    def end(self) -> float:
        return self.ts + self.dur


@dataclass(frozen=True)
class BatchSpan(SpanEvent):
    """One :meth:`ExecutionEngine.run_cells` batch, spanning all workers."""

    cells: int = 0


@dataclass(frozen=True)
class CellSpan(SpanEvent):
    """One sweep cell on a worker's timeline.

    Executed cells span the timed iteration's simulated wall time; cache
    hits are **zero-work spans** (``dur == 0``, ``cached=True``,
    ``worker == CACHE_WORKER``) so warm reruns still show every cell in
    the trace without pretending work happened.  ``oom`` carries the
    failure message for infeasible cells; ``skipped`` marks fail-fast
    placeholders.
    """

    benchmark: str = ""
    collector: str = ""
    heap_mb: float = 0.0
    invocation: int = 0
    worker: int = 0
    cached: bool = False
    oom: Optional[str] = None
    skipped: bool = False

    @property
    def label(self) -> str:
        """Human-readable track label: ``lusearch/G1/54MB#0``."""
        return f"{self.benchmark}/{self.collector}/{self.heap_mb:.0f}MB#{self.invocation}"


@dataclass(frozen=True)
class IterationSpan(SpanEvent):
    """One benchmark iteration inside an invocation (simulator layer)."""

    index: int = 0
    benchmark: str = ""
    collector: str = ""


@dataclass(frozen=True)
class GcPause(SpanEvent):
    """A stop-the-world pause — the JVMTI-visible signal LBO builds on.

    ``kind`` is the simulator's pause kind (``"young:young"``,
    ``"full:full-mark"``, ...); ``gc_workers`` is the number of collector
    threads the pause occupied when known (0 when reconstructed from a
    timeline, which does not carry worker counts).
    """

    kind: str = "stw"
    gc_workers: float = 0.0


@dataclass(frozen=True)
class ConcurrentSpan(SpanEvent):
    """A span of concurrent collector work beside the mutator."""

    gc_threads: float = 0.0
    dilation: float = 1.0


@dataclass(frozen=True)
class AllocationStall(SpanEvent):
    """Mutators blocked on the collector — latency hidden from pause-time
    metrics (the Section 4.4 critique), surfaced explicitly here."""


@dataclass(frozen=True)
class CompileWarmup(SpanEvent):
    """Estimated time lost to cold JIT/classloading in one iteration.

    ``factor`` is the iteration's warmup slowdown factor; the span's
    duration is the share of the iteration attributable to it.
    """

    iteration: int = 0
    factor: float = 1.0


@dataclass(frozen=True)
class CacheHit(TraceEvent):
    """A cell served from the content-addressed result cache.

    ``negative`` marks hits on cached ``OutOfMemoryError`` results —
    infeasible points a warm sweep skips without re-proving them.
    """

    key: str = ""
    negative: bool = False


@dataclass(frozen=True)
class CacheMiss(TraceEvent):
    """A cell that had to be simulated (no usable cache entry)."""

    key: str = ""


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """The chaos injector fired on one attempt of a cell.

    ``kind`` is one of :data:`repro.resilience.FAULT_KINDS`
    (``transient``, ``crash``, ``hang``, ``corrupt``); ``attempt`` is the
    0-based attempt the fault hit.  Emitted on the cell's display track
    so an injected failure is visible next to the work it disrupted.
    """

    key: str = ""
    kind: str = ""
    attempt: int = 0


@dataclass(frozen=True)
class RetryAttempt(TraceEvent):
    """The retry policy re-ran a cell after a transient failure.

    ``attempt`` is the 0-based attempt that *failed*, ``delay_s`` the
    deterministic backoff charged before the next attempt, and ``error``
    the failure's one-line description (taxonomy-classified transient).
    """

    key: str = ""
    attempt: int = 0
    delay_s: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class BudgetExceeded(TraceEvent):
    """The supervisor refused a cell the deadline budget cannot afford.

    ``estimate_s`` is the EWMA cost model's prediction for the family's
    next cell and ``remaining_s`` the wall-clock budget left when the
    decision was made (0 when the deadline had already passed).  The
    cell becomes a ``Hole(reason="budget")`` a re-run on the same cache
    fills.
    """

    family: str = ""
    estimate_s: float = 0.0
    remaining_s: float = 0.0


@dataclass(frozen=True)
class BreakerOpened(TraceEvent):
    """A workload×collector family's circuit breaker tripped.

    Emitted once per opening, on the batch track; ``failures`` is the
    consecutive-give-up count that crossed the threshold.  Subsequent
    cells of the family fast-fail as ``Hole(reason="breaker")`` until a
    half-open probe succeeds.
    """

    family: str = ""
    failures: int = 0


@dataclass(frozen=True)
class DrainStarted(TraceEvent):
    """Graceful shutdown began: no new cells start, in-flight cells
    finish and are cached.  ``signal`` names the trigger (SIGINT,
    SIGTERM, or a programmatic drain request)."""

    signal: str = ""


@dataclass(frozen=True)
class PlannerRound(TraceEvent):
    """One propose → execute → refit round of the adaptive planner.

    Planner time is round-counted, not wall-clock: ``ts`` is the 0-based
    round index (so recordings stay deterministic), ``proposed`` how many
    cells the policies asked for, ``executed`` how many the budget
    admitted, ``budget_left`` what remains afterwards, and ``reasons`` a
    compact ``reason:count`` summary (``"scout:15 bisect:4"``) of why.
    """

    index: int = 0
    proposed: int = 0
    executed: int = 0
    budget_left: int = 0
    reasons: str = ""


@dataclass(frozen=True)
class CellGraded(TraceEvent):
    """A measured sweep point received its CV-based validity grade.

    Emitted by :func:`repro.harness.plans.run_adaptive` after each
    round's refit, on the round's timestamp; ``cv`` and ``samples`` are
    the dispersion evidence behind the grade.
    """

    benchmark: str = ""
    collector: str = ""
    heap_multiple: float = 0.0
    score: float = 0.0
    grade: str = ""
    cv: float = 0.0
    samples: int = 0


@dataclass(frozen=True)
class JobSpan(SpanEvent):
    """One sweep-service job, claim to terminal state (service layer).

    ``state`` is the terminal state the job reached (``DONE`` /
    ``FAILED`` / ``CANCELLED`` / ``PARTIAL``); ``cells`` the sweep size
    and ``holes`` how many cells were refused or failed.  Timestamps are
    wall seconds since service start — the service-track exception to
    the simulated-time rule (see the module docstring).
    """

    job_id: str = ""
    benchmark: str = ""
    state: str = ""
    cells: int = 0
    holes: int = 0


@dataclass(frozen=True)
class QueueDepth(TraceEvent):
    """A sample of the service job queue: how many jobs are waiting
    (``depth``) and executing (``running``).  Emitted at every queue
    transition; renders as a counter track in the Chrome trace."""

    depth: int = 0
    running: int = 0


@dataclass(frozen=True)
class JobReaped(TraceEvent):
    """The lease reaper recovered one job whose worker died or hung.

    ``dead_letter`` distinguishes the two outcomes: ``False`` means the
    job was requeued (``requeues`` is its new count), ``True`` means it
    burned its requeue budget and was parked in ``DEAD_LETTER``.
    Service-track timestamps (wall seconds since service start)."""

    job_id: str = ""
    requeues: int = 0
    dead_letter: bool = False


@dataclass(frozen=True)
class WorkerCrashed(TraceEvent):
    """A service worker thread died on an uncaught exception and was
    respawned; ``error`` is the contained ``type: message`` summary and
    ``job_id`` the job it was holding (empty between jobs).
    Service-track timestamps (wall seconds since service start)."""

    worker: str = ""
    job_id: str = ""
    error: str = ""


@runtime_checkable
class RecorderLike(Protocol):
    """What instrumented code needs from a recorder: the sink contract.

    Any object with an ``enabled`` flag (so hot paths can skip event
    construction) and an ``emit`` method qualifies — the no-op
    :class:`NullRecorder`, the ring-buffered :class:`Recorder`, or a
    caller's own implementation.  Call sites should type against this
    protocol, not a concrete recorder class.
    """

    enabled: bool

    def emit(self, event: TraceEvent) -> None:
        """Consume one flight-recorder event."""


class NullRecorder:
    """The zero-cost default recorder: drops everything.

    ``enabled`` is False so instrumented code can skip building event
    objects altogether (``if recorder.enabled: recorder.emit(...)``);
    ``emit`` is still safe to call unconditionally.
    """

    enabled: bool = False
    capacity: int = 0
    dropped: int = 0

    def emit(self, event: TraceEvent) -> None:
        """Discard ``event``."""

    def events(self) -> Tuple[TraceEvent, ...]:
        """No events are ever retained."""
        return ()

    def clear(self) -> None:
        """Nothing to clear."""

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())


class Recorder(NullRecorder):
    """A bounded ring buffer of flight-recorder events.

    Like JFR's in-memory mode: events append in O(1); once ``capacity``
    is reached the oldest events are overwritten and ``dropped`` counts
    the loss, so a runaway recording degrades to "most recent history"
    instead of unbounded memory growth.  ``events()`` returns the
    surviving events oldest-first.
    """

    enabled = True

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("recorder capacity must be at least 1")
        self.capacity = capacity
        self.dropped = 0
        self._ring: List[TraceEvent] = []
        self._head = 0  # index of the oldest event once the ring is full

    def emit(self, event: TraceEvent) -> None:
        """Append ``event``, overwriting the oldest when full."""
        if not isinstance(event, TraceEvent):
            raise TypeError(f"can only record TraceEvent instances, got {event!r}")
        if len(self._ring) < self.capacity:
            self._ring.append(event)
        else:
            self._ring[self._head] = event
            self._head = (self._head + 1) % self.capacity
            self.dropped += 1

    def events(self) -> Tuple[TraceEvent, ...]:
        """The retained events, oldest first."""
        return tuple(self._ring[self._head :] + self._ring[: self._head])

    def clear(self) -> None:
        """Forget everything recorded so far (capacity is kept)."""
        self._ring = []
        self._head = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)
