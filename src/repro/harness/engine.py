"""The cell-level execution engine: parallel sweeps with result caching.

Every figure in the paper is a sweep over (workload × collector ×
heap-multiple × invocation) cells, and each cell is one
:func:`~repro.jvm.simulator.simulate_run` call.  Simulated runs are
deterministic functions of their seed — ``(workload, collector, heap_mb,
invocation)`` — so cells are embarrassingly parallel and perfectly
memoizable.  This module exploits both:

- :class:`Cell` names one job; :func:`cell_key` hashes it into a stable
  content address;
- :class:`ResultCache` memoizes :class:`CellResult` objects on disk under
  that address, including *negative* results (``OutOfMemoryError``), so
  heap sweeps skip known-infeasible points on reruns;
- :class:`ExecutionEngine` fans cells out over a ``multiprocessing`` pool
  (``jobs > 1``) or runs them in-process (``jobs=1``), reporting per-cell
  timing and failures through a pluggable :class:`ProgressSink`.

Cache key schema (``ENGINE_SCHEMA_VERSION`` invalidates all entries when
the simulator's behaviour changes):

    sha256(json({schema, workload spec fields, collector, heap_mb,
                 invocation, iterations, machine fields, tuning fields,
                 duration_scale, environment fields}))

Floats are hashed via ``float.hex()`` so the address is exact, and
``RunConfig.invocations`` is deliberately *excluded* — a cell is one
invocation, so asking for more invocations only adds cells, it never
invalidates the ones already computed.  The canonical JSON of the four
frozen objects a sweep's cells share — the workload spec, machine,
tuning and environment — is memoized by object identity in a memo
bounded to 128 entries, each holding its object so its ``id`` cannot be
reused while cached.  The collector, heap, invocation, iterations,
duration scale, fidelity and schema version are read on every call, and
the blob is assembled in ``json.dumps(sort_keys=True)`` order, so keys
are byte-identical to encoding the whole payload at once.

Determinism guarantee: a cell's result depends only on its key fields.
The engine therefore produces bit-identical results for any ``jobs``
value and any cache state, because every attempt calls ``simulate_run``
with the same arguments and the simulator reseeds from them.  Every miss
goes through one attempt contract (admission, retry, failure charging,
bookkeeping), run by one of two loops: in input order in-process, or in
chunks of attempts across a worker pool.

Resilience (:mod:`repro.resilience`) extends the guarantee to failure:
an :class:`~repro.resilience.FaultInjector` injects seeded chaos into
attempts and a :class:`~repro.resilience.RetryPolicy` bounds timeouts
and backoff.  Faults replace or delay attempts but never perturb a
successful simulation, so a chaos run that converges is bit-identical
to a fault-free one.  All of it is off by default — one attempt, no
timeout, no faults — which the same loops run as is.  An interrupted
sweep resumes by re-running it against the same cache: every cell that
finished is an entry there, so only the missing cells execute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import json
import math
import multiprocessing
import os
import pickle
import queue
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.jvm.collectors import resolve_collector
from repro.jvm.heap import OutOfMemoryError
from repro.jvm.simulator import IterationResult, simulate_run
from repro.observability import RecorderLike
from repro.observability import events as flight
from repro.resilience import (
    CellExecutionError,
    CellTimeout,
    FaultInjector,
    FaultSpec,
    NullInjector,
    RetryPolicy,
    Supervisor,
    classify,
    corrupt_entry,
)
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runner imports us)
    from repro.harness.runner import RunConfig

#: Bump when simulator behaviour changes in a way that alters results:
#: every cached entry is invalidated because the hash changes.
#: 2: IterationResult grew fidelity-tier fields (avg_footprint_mb,
#: fidelity, optional timeline/telemetry) — old pickles lack them.
#: 3: latency replay seeds switched from 3-decimal heap multiples to
#: full-precision ``repr(float)`` — refined multiples differing past
#: 3 decimals no longer share a replay stream, so replay-adjacent
#: caches from the 3-decimal era must be quarantined, not reused.
ENGINE_SCHEMA_VERSION = 3

#: Cells executed (not served from cache) by *this process* — test hook
#: for the "warm cache runs zero simulations" guarantee.
SIMULATE_CALLS = 0


@dataclass(frozen=True)
class Cell:
    """One independent job: a single invocation of one sweep point.

    ``config.invocations`` is ignored here (a cell *is* one invocation);
    the remaining config fields — iterations, machine, tuning,
    duration_scale, environment — shape the simulation and participate in
    the cache key.
    """

    spec: WorkloadSpec
    collector: str
    heap_mb: float
    invocation: int
    config: "RunConfig"

    def __post_init__(self) -> None:
        resolve_collector(self.collector)
        if self.heap_mb <= 0:
            raise ValueError("cell heap size must be positive")
        if self.invocation < 0:
            raise ValueError("cell invocation must be non-negative")


@dataclass(frozen=True)
class CellResult:
    """What one cell produced: a timed iteration, or a negative result.

    ``oom`` carries the ``OutOfMemoryError`` message when the workload
    could not run in the cell's heap; such results are cached like any
    other so sweeps skip known-infeasible points.  ``skipped`` marks
    placeholders fabricated by fail-fast short-circuiting — never cached,
    because they were not actually computed.
    """

    key: str
    timed: Optional[IterationResult]
    oom: Optional[str] = None
    duration_s: float = 0.0
    skipped: bool = False

    @property
    def ok(self) -> bool:
        """True when the cell ran to completion."""
        return self.oom is None


def _canonical(value: object) -> object:
    """Reduce a value to a JSON-stable structure for hashing.

    Floats go through ``float.hex`` (exact, locale-independent); nested
    dataclasses (specs, tuning, machine, environment, request profiles,
    object-size distributions) recurse field by field.
    """
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _canonical(value.tolist())
    raise TypeError(f"cannot canonicalize {value!r} for cache hashing")


def _dumps(value: object) -> str:
    """The key's JSON encoding: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _scalar(value: object) -> str:
    """``_dumps(value)``, without building an encoder for the plain
    ``str``/``int``/``None`` scalars a key carries (the same text
    :mod:`json` emits for them)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    return _dumps(value)


#: Bound on :data:`_FRAGMENTS`.  A sweep keys a few dozen distinct spec
#: and config objects, so this holds all of them with room to spare.
_FRAGMENT_MEMO_SIZE = 128

#: ``id(obj) -> (obj, canonical JSON of obj)`` for the frozen spec,
#: machine, tuning and environment objects a sweep's cells share.  The
#: entry holds ``obj``, so its ``id`` cannot be reused while cached.
_FRAGMENTS: Dict[int, Tuple[object, str]] = {}
_FRAGMENTS_LOCK = threading.Lock()


def _fragment(value: object) -> str:
    """``_dumps(_canonical(value))``, memoized by object identity.

    Reads are lock-free (one ``dict.get``); inserts and the oldest-first
    eviction that keeps the memo bounded run under a lock.
    """
    entry = _FRAGMENTS.get(id(value))
    if entry is not None and entry[0] is value:
        return entry[1]
    fragment = _dumps(_canonical(value))
    with _FRAGMENTS_LOCK:
        while len(_FRAGMENTS) >= _FRAGMENT_MEMO_SIZE:
            del _FRAGMENTS[next(iter(_FRAGMENTS))]
        _FRAGMENTS[id(value)] = (value, fragment)
    return fragment


def cell_key(cell: Cell) -> str:
    """Content address of one cell: a stable sha256 over its key fields.

    The blob is ``_dumps`` of the key payload, assembled field by field
    in sorted-key order so the shared objects' fragments come from the
    memo; the scalars and the schema version are read on every call.
    """
    config = cell.config
    # The fidelity tier changes the cached payload (aggregate results
    # carry no timeline/telemetry), so it participates in the key — but
    # only when reducing detail, keeping full/auto keys stable across the
    # introduction of tiers.
    fidelity = getattr(config, "fidelity", None)
    tier = "" if fidelity is None or fidelity == "full" else ',"fidelity":' + _scalar(fidelity)
    blob = "".join((
        '{"collector":', _scalar(cell.collector),
        ',"duration_scale":"', float(config.duration_scale).hex(),
        '","environment":', _fragment(config.environment),
        tier,
        ',"heap_mb":"', float(cell.heap_mb).hex(),
        '","invocation":', _scalar(cell.invocation),
        ',"iterations":', _scalar(config.iterations),
        ',"machine":', _fragment(config.machine),
        ',"schema":', _scalar(ENGINE_SCHEMA_VERSION),
        ',"tuning":', _fragment(config.tuning),
        ',"workload":', _fragment(cell.spec),
        "}",
    ))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _execute_cell(payload: Tuple[Cell, str]) -> CellResult:
    """Run one cell (pool worker entry point; must stay module-level)."""
    global SIMULATE_CALLS
    cell, key = payload
    config = cell.config
    SIMULATE_CALLS += 1
    started = time.perf_counter()
    try:
        run = simulate_run(
            cell.spec,
            cell.collector,
            cell.heap_mb,
            iterations=config.iterations,
            invocation=cell.invocation,
            machine=config.machine,
            tuning=config.tuning,
            duration_scale=config.duration_scale,
            environment=config.environment,
            fidelity=config.fidelity,
        )
    except OutOfMemoryError as exc:
        return CellResult(
            key=key, timed=None, oom=str(exc), duration_s=time.perf_counter() - started
        )
    return CellResult(key=key, timed=run.timed, duration_s=time.perf_counter() - started)


def _execute_cell_chaos(
    payload: Tuple[Cell, str, Optional[FaultSpec], int]
) -> CellResult:
    """Run one attempt of a cell under chaos.

    The injector is rebuilt from its picklable spec wherever the attempt
    runs and redraws the same deterministic fault decision the parent
    computed, so injected failures fire *inside* the worker — a crash
    raised here is reported exactly like a real worker failure, and a
    hang really does occupy the worker.
    """
    cell, key, spec, attempt = payload
    if spec is not None:
        injector = FaultInjector(spec)
        kind = injector.decide(key, attempt)
        if kind is not None:
            injector.fire(kind, key, attempt)
    return _execute_cell((cell, key))


def _execute_attempts(
    tasks: Sequence[Tuple[Cell, str, Optional[FaultSpec], int]],
    timeout_s: Optional[float],
) -> List[Union[CellResult, Exception]]:
    """Run ``(cell, key, fault spec, attempt)`` attempts in order and
    return each one's result or exception (both miss loops' entry point,
    so module-level for pool workers).

    Each deadline starts when its attempt does, so queueing behind a
    busy pool or chunk-mates is never charged to a cell; a hung attempt
    is abandoned on a daemon thread as a :class:`CellTimeout`.  Failures
    are returned, not raised, so the rest of the chunk still runs.
    """
    outcomes: List[Union[CellResult, Exception]] = []
    for task in tasks:
        try:
            if timeout_s is None:
                outcomes.append(_execute_cell_chaos(task))
            else:
                outcomes.append(
                    _call_with_timeout(_execute_cell_chaos, task, timeout_s, task[1])
                )
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _call_with_timeout(fn, payload, timeout_s: float, key: str) -> CellResult:
    """Run ``fn(payload)`` with a wall-clock bound (how
    :func:`_execute_attempts` enforces ``RetryPolicy.cell_timeout_s``).

    The attempt runs on a named daemon thread (``chopin-cell-<key8>``,
    so a thread dump attributes stragglers to their cell) joined with
    ``timeout_s``; a blown deadline raises
    :class:`~repro.resilience.CellTimeout` and *abandons* the thread.
    Abandonment is explicit, not just neglect: the ``abandoned`` event
    pinned to the thread is set when the parent gives up, cooperative
    sleepers (the chaos injector's hang) wake on it and exit instead of
    leaking for their full duration, and the target drops its result
    rather than writing into a box nobody will read.
    """
    box: Dict[str, object] = {}
    abandoned = threading.Event()

    def target() -> None:
        try:
            result = fn(payload)
        except BaseException as exc:  # propagate into the caller's frame
            if not abandoned.is_set():
                box["error"] = exc
            return
        if not abandoned.is_set():
            box["result"] = result

    thread = threading.Thread(
        target=target, daemon=True, name=f"chopin-cell-{key[:8]}"
    )
    thread.abandoned = abandoned  # type: ignore[attr-defined]
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        abandoned.set()
        raise CellTimeout(f"cell {key[:12]} exceeded {timeout_s:g}s timeout")
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]  # type: ignore[return-value]


class ResultCache:
    """Content-addressed on-disk memo of :class:`CellResult` objects.

    Entries live at ``<root>/<key[:2]>/<key>.pkl``; writes are atomic
    (temp file + rename) so concurrent engines sharing a cache directory
    never observe partial entries.  Reads are best-effort: a corrupt or
    unreadable entry reads as a miss, never an error — but corruption is
    *counted* (``corrupt``), not silently swallowed, so cache rot shows
    up in :class:`EngineStats` instead of masquerading as a cold cache.
    """

    #: Hex characters of the key that name its fan-out directory
    #: (0 = a flat layout).
    width = 2

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self._root = os.fspath(self.root)
        #: Entries that existed but failed to load or validate — torn
        #: writes, disk rot, or injected corruption.  Monotonic; the
        #: engine folds per-batch deltas into ``EngineStats.corrupt``.
        self.corrupt = 0

    def path_for(self, key: str) -> Path:
        """Where a key's entry lives (whether or not it exists yet)."""
        return Path(self._entry_path(key, self.width))

    def _entry_path(self, key: str, width: int) -> str:
        """Where a key's entry lives under a ``width``-character fan-out,
        as a plain string (a probe needs no :class:`~pathlib.Path`)."""
        if width:
            return os.path.join(self._root, key[:width], key + ".pkl")
        return os.path.join(self._root, key + ".pkl")

    def get(self, key: str) -> Optional[CellResult]:
        """Load a cached result, or None on miss/corruption."""
        return self._load(self._entry_path(key, self.width), key)

    def _load(self, path: str, key: str) -> Optional[CellResult]:
        """One best-effort load of ``key``'s entry from ``path`` (every
        layout's probe).  An entry that cannot be read is a miss; one
        that fails to unpickle, or is not ``key``'s :class:`CellResult`,
        is a miss counted in ``corrupt``."""
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.readall()
        except OSError:
            return None  # a genuine miss: absent (or unreadable) entry
        try:
            result = pickle.loads(data)
        # Unpickling a truncated or overwritten entry can raise almost
        # anything (ValueError, KeyError, ...), so treat any failure as
        # a miss rather than enumerating exception types — but count it:
        # the entry *existed* and was unusable.
        except Exception:
            self.corrupt += 1
            return None
        if not isinstance(result, CellResult) or result.key != key:
            self.corrupt += 1
            return None
        return result

    def put(self, result: CellResult) -> None:
        """Store a result atomically; IO failures are swallowed (the
        cache is an accelerator, not a dependency)."""
        self._write(result)

    def _write(self, result: CellResult) -> None:
        """One atomic on-disk publish: temp file + ``os.replace``."""
        path = self.path_for(result.key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass


class ProgressSink:
    """Observer interface for engine progress; the default is silent.

    Subclass and override any subset — the engine calls ``batch_started``
    once per :meth:`ExecutionEngine.run_cells`, then ``cell_finished``
    for every cell (cache hits included), then ``batch_finished``.
    """

    def batch_started(self, total_cells: int) -> None:
        """A batch of ``total_cells`` cells is about to run."""

    def cell_finished(self, cell: Cell, result: CellResult, from_cache: bool) -> None:
        """One cell completed (executed, cached, or fail-fast skipped)."""

    def cell_failed(self, cell: Cell, hole: "Hole") -> None:
        """One cell exhausted its retry budget (partial mode only)."""

    def batch_finished(self, stats: "EngineStats") -> None:
        """The batch completed; ``stats`` covers the engine's lifetime."""


class LogSink(ProgressSink):
    """Progress sink that writes one line per cell to a stream."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0

    def batch_started(self, total_cells: int) -> None:
        self._total = total_cells
        self._done = 0

    def cell_finished(self, cell: Cell, result: CellResult, from_cache: bool) -> None:
        self._done += 1
        if from_cache:
            status = "cached"
        elif result.skipped:
            status = "skipped"
        elif result.oom is not None:
            status = f"OOM ({result.duration_s:.2f}s)"
        else:
            status = f"{result.duration_s:.2f}s"
        multiple = cell.heap_mb / cell.spec.minheap_mb
        print(
            f"[{self._done}/{self._total}] {cell.spec.name} {cell.collector} "
            f"{multiple:.2f}x inv{cell.invocation}: {status}",
            file=self.stream,
        )

    def cell_failed(self, cell: Cell, hole: "Hole") -> None:
        self._done += 1
        multiple = cell.heap_mb / cell.spec.minheap_mb
        if hole.attempts == 0:
            status = f"SKIPPED ({hole.reason}): {hole.error}"
        else:
            status = f"FAILED after {hole.attempts} attempt(s): {hole.error}"
        print(
            f"[{self._done}/{self._total}] {cell.spec.name} {cell.collector} "
            f"{multiple:.2f}x inv{cell.invocation}: {status}",
            file=self.stream,
        )

    def batch_finished(self, stats: "EngineStats") -> None:
        print(
            f"engine: {stats.executed} executed, {stats.cached} cached "
            f"({stats.hit_rate:.0%} hit rate, {stats.negative_hits} negative), "
            f"{stats.oom} infeasible, {stats.execute_s:.2f}s simulating",
            file=self.stream,
        )
        if stats.corrupt:
            print(
                f"engine: {stats.corrupt} corrupt cache entr"
                f"{'y' if stats.corrupt == 1 else 'ies'} detected and "
                f"re-simulated (cache rot — consider clearing the cache dir)",
                file=self.stream,
            )
        if stats.retries or stats.timeouts or stats.gave_up:
            print(
                f"engine: {stats.retries} retries, {stats.timeouts} timeouts, "
                f"{stats.gave_up} cells gave up",
                file=self.stream,
            )
        if stats.budget_skipped or stats.breaker_skipped or stats.drained:
            print(
                f"engine: supervisor skipped {stats.budget_skipped} over "
                f"budget, {stats.breaker_skipped} breaker-open, "
                f"{stats.drained} drained",
                file=self.stream,
            )


@dataclass
class EngineStats:
    """Cumulative counters over an engine's lifetime.

    ``hits``/``misses``/``hit_rate`` answer the question a warm rerun
    raises — *why was that fast?* — in cache-lookup terms: every cell is
    either served from the result cache (a hit) or simulated (a miss).
    """

    executed: int = 0  # cells actually simulated
    cached: int = 0  # cells served from the result cache
    oom: int = 0  # negative (OutOfMemoryError) results returned
    skipped: int = 0  # cells short-circuited by fail-fast
    negative_hits: int = 0  # cache hits on stored OutOfMemoryError results
    execute_s: float = 0.0  # total simulation time across cells
    retries: int = 0  # attempts re-run after a transient failure
    timeouts: int = 0  # attempts that blew the per-cell timeout
    gave_up: int = 0  # cells that exhausted their retry budget (holes)
    corrupt: int = 0  # cache entries that existed but failed to load
    budget_skipped: int = 0  # cells refused by the deadline budget
    breaker_skipped: int = 0  # cells refused by an open circuit breaker
    drained: int = 0  # cells refused by a graceful-shutdown drain
    faults: int = 0  # faults the chaos injector fired (attempts + torn entries)

    @property
    def hits(self) -> int:
        """Cache hits (alias of ``cached``)."""
        return self.cached

    @property
    def misses(self) -> int:
        """Cache misses — every executed cell is one."""
        return self.executed

    @property
    def cells(self) -> int:
        """Total cells accounted for (hits + misses + fail-fast skips)."""
        return self.executed + self.cached + self.skipped

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups served from the cache (0.0 when no
        cells have been looked up yet)."""
        lookups = self.cached + self.executed
        return self.cached / lookups if lookups else 0.0

    def minus(self, other: "EngineStats") -> "EngineStats":
        """The counter delta ``self - other`` — per-batch stats from two
        lifetime snapshots."""
        return EngineStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in dataclasses.fields(EngineStats)
            }
        )


#: Hole reasons the engine assigns, by provenance: cells that *ran and
#: failed* (``gave_up``, ``timeout``) versus cells the supervisor
#: *refused to start* (``budget``, ``breaker``, ``drained`` — zero
#: attempts, zero backoff).
HOLE_REASONS: Tuple[str, ...] = ("gave_up", "timeout", "budget", "breaker", "drained")


@dataclass(frozen=True)
class Hole:
    """One cell the engine could not complete: where, how hard it tried,
    why, and the last failure — everything needed to re-target the gap.

    ``reason`` is one of :data:`HOLE_REASONS`: ``gave_up`` (exhausted the
    retry budget on a permanent failure), ``timeout`` (the last attempt
    blew the per-cell deadline), or a supervised refusal — ``budget``
    (the deadline budget could not afford the cell), ``breaker`` (the
    family's circuit breaker was open), ``drained`` (a graceful shutdown
    was in progress).  Supervised holes carry ``attempts == 0``.
    """

    cell: Cell
    key: str
    attempts: int
    error: str
    reason: str = "gave_up"


@dataclass
class PartialBatch:
    """Graceful-degradation return of :meth:`ExecutionEngine.run_cells`.

    ``results`` is in input order with ``None`` placeholders at holes;
    ``holes`` names every incomplete cell with its attempt count and last
    error.  A fully-successful partial run has ``complete=True`` and its
    ``results`` equal the strict-mode return value.
    """

    results: List[Optional[CellResult]]
    holes: List[Hole] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every cell produced a result."""
        return not self.holes

    def completed(self) -> List[CellResult]:
        """The results that exist, holes elided."""
        return [r for r in self.results if r is not None]

    def raise_if_incomplete(self) -> List[CellResult]:
        """Strict-mode view: the full results, or the first hole's error."""
        if self.holes:
            hole = self.holes[0]
            raise CellExecutionError(hole.key, hole.attempts, hole.error)
        return self.completed()


class ExecutionEngine:
    """Runs batches of cells, in-process or across a worker pool.

    ``jobs=1`` (the default) executes cells inline — no subprocesses, no
    pickling.  ``jobs>1`` fans cache misses out over ``multiprocessing``
    in chunks of attempts; results are deterministic either way (see the
    module docstring).  Passing ``cache_dir`` enables the
    content-addressed result cache.

    ``recorder`` attaches a flight recorder
    (:class:`repro.observability.Recorder`): each batch then emits cell
    spans (one display track per cell, laid out on per-worker simulated
    timelines), nested GC-pause/concurrent/stall slices from the timed
    iteration, and cache hit/miss events.  The default
    :class:`~repro.observability.NullRecorder` costs nothing.  Recording
    happens *after* results are assembled, from the results themselves,
    so it cannot perturb cache keys or outputs — results are bit-identical
    with the recorder on or off, and cache hits still appear in the trace
    as zero-work hit spans.

    Resilience is opt-in through two more collaborators, both inert by
    default: ``retry`` (a :class:`~repro.resilience.RetryPolicy` adding
    per-cell timeouts and bounded backoff) and ``injector`` (a
    :class:`~repro.resilience.FaultInjector` injecting seeded chaos into
    attempts).  Inert collaborators still run every miss through the
    same attempt loop, so the defaults — one attempt, no timeout, no
    chaos — are simply the loop's smallest case, with the same error
    contract.  Resuming needs no collaborator: the cache holds every
    finished cell, so re-running a sweep on the same cache executes
    only what is missing.

    ``supervisor`` attaches a :class:`~repro.resilience.Supervisor`: the
    engine then consults it before starting each cache-missed cell
    (deadline budget, per-family circuit breaker, graceful drain) and
    reports completions/give-ups back to it.  Supervision decides
    *whether* a cell runs, never *how* — cells that do run are
    bit-identical with or without a supervisor, and refused cells become
    typed holes (``reason`` of ``budget``/``breaker``/``drained``) a
    re-run on the same cache fills.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        progress: Optional[ProgressSink] = None,
        recorder: Optional[RecorderLike] = None,
        retry: Optional[RetryPolicy] = None,
        injector: Optional[NullInjector] = None,
        supervisor: Optional[Supervisor] = None,
        batch: bool = False,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("engine needs at least one job")
        if cache is not None and cache_dir is not None:
            raise ValueError("pass cache_dir or a cache instance, not both")
        self.jobs = jobs
        #: Vectorized batch execution (opt-in): cache-missed cells at
        #: aggregate fidelity are grouped by collector and simulated in
        #: one :func:`repro.jvm.batch.simulate_batch` call per group.
        #: The kernel runs in-process on the serial miss loop, whatever
        #: ``jobs`` says, and only on engines that are not
        #: :attr:`resilient`.  Cell keys, cache entries, progress
        #: callbacks, and fail-fast semantics are unchanged — batching
        #: is engine-internal — but results match the scalar path to
        #: BATCH_TOLERANCE rather than bit-exactly, which is why it is
        #: off by default.
        self.batch = batch
        # ``cache`` accepts a ready-made ResultCache (e.g. one shared
        # ShardedResultCache tenanted across a service's worker engines);
        # ``cache_dir`` keeps the one-engine-one-cache convenience path.
        if cache is None and cache_dir is not None:
            cache = ResultCache(cache_dir)
        self.cache = cache
        self.progress = progress if progress is not None else ProgressSink()
        self.recorder = recorder if recorder is not None else flight.NullRecorder()
        self.retry = retry if retry is not None else RetryPolicy()
        self.injector = injector if injector is not None else NullInjector()
        # An attached supervisor makes the miss loops consult it even
        # when it has no budget or breaker — a signal-initiated drain
        # must still work.
        self._supervised = supervisor is not None
        self.supervisor = supervisor if supervisor is not None else Supervisor()
        self.stats = EngineStats()
        # Per-batch attempt history (faults injected, retries charged),
        # kept out of CellResult so cached payloads stay bit-identical
        # whether or not chaos happened on the way to them.
        self._attempt_log: Dict[int, List[tuple]] = {}
        # Flight-recorder bookkeeping: per-worker simulated-time cursors
        # and the next free display track, persisted across batches so a
        # reused engine lays successive batches out end to end.
        self._worker_clocks = [0.0] * jobs
        self._next_track = 1  # track 0 is the cache-counter track

    def attach_supervisor(self, supervisor: Supervisor) -> None:
        """Attach (or replace) the engine's supervisor after
        construction — how :func:`~repro.harness.plans.run_plan` threads
        one through to a caller-provided engine."""
        self.supervisor = supervisor
        self._supervised = True

    @property
    def supervised(self) -> bool:
        """True when a caller attached a supervisor (admission checks
        run and a graceful drain is honoured)."""
        return self._supervised

    @property
    def resilient(self) -> bool:
        """True when any resilience collaborator is active.  Every miss
        runs through the same attempt bookkeeping either way; a resilient
        engine only declines the batch kernel, whose precomputed rows
        cannot be retried, timed, faulted or refused cell by cell."""
        return self.injector.enabled or self.retry.active or self._supervised

    def run_cells(
        self,
        cells: Sequence[Cell],
        fail_fast: bool = False,
        partial: bool = False,
    ) -> Union[List[CellResult], PartialBatch]:
        """Execute a batch, returning results in input order.

        Cache hits never execute; every miss is attempted under the
        retry policy (one attempt, no timeout, by default) and the chaos
        injector, when one is attached, and written back.  Misses run on
        one of two loops: :meth:`_run_serial`, in input order, when
        ``jobs=1``, when there is a single miss, or when a non-resilient
        engine has ``batch`` on; :meth:`_run_pool`, in chunks across the
        worker pool, otherwise.

        With ``fail_fast`` and ``jobs=1``, the first ``OutOfMemoryError``
        short-circuits the rest of the batch: remaining cells come back
        as uncached ``skipped`` placeholders carrying the same message —
        callers that raise on the first failure (like ``measure``) never
        observe them.  With ``jobs>1`` fail-fast is a no-op: every cell
        runs, and parallelism pays for the wasted ones.

        An ``OutOfMemoryError`` is a result, not a failure.  Any other
        exception is a failed attempt; a cell whose attempts are spent
        (or that fails permanently) raises
        :class:`~repro.resilience.CellExecutionError` chained to the last
        error — unless ``partial`` is set, in which case the return value
        becomes a :class:`PartialBatch` whose ``holes`` report (cell,
        attempts, last error) instead of raising.  Cells a supervisor
        refuses to start follow the same contract.
        """
        keyed = [(cell, cell_key(cell)) for cell in cells]
        self.progress.batch_started(len(keyed))
        self._attempt_log = {}
        results: List[Optional[CellResult]] = [None] * len(keyed)
        misses: List[int] = []
        hit_indices = set()
        cache_corrupt_before = self.cache.corrupt if self.cache is not None else 0
        for idx, (cell, key) in enumerate(keyed):
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                results[idx] = hit
                hit_indices.add(idx)
                self.stats.cached += 1
                if hit.oom is not None:
                    self.stats.oom += 1
                    self.stats.negative_hits += 1
                self.progress.cell_finished(cell, hit, from_cache=True)
            else:
                misses.append(idx)
        if self.cache is not None:
            self.stats.corrupt += self.cache.corrupt - cache_corrupt_before

        batching = self.batch and not self.resilient
        if self.jobs > 1 and len(misses) > 1 and not batching:
            holes = self._run_pool(keyed, misses, results, partial)
        else:
            holes = self._run_serial(keyed, misses, results, fail_fast, partial, batching)

        # Consume supervision incidents whether or not anyone records
        # them, so the list never grows without bound across batches.
        incidents: List[tuple] = []
        if self._supervised and self.supervisor.incidents:
            incidents = list(self.supervisor.incidents)
            self.supervisor.incidents.clear()
        if self.recorder.enabled:
            self._trace_batch(keyed, results, hit_indices, incidents)
        self.progress.batch_finished(self.stats)
        if self._supervised and self.supervisor.draining:
            drained = sum(1 for h in holes if h.reason == "drained")
            if drained:
                # Everything completed is already durable (atomic cache
                # writes) — announce the clean drain and how to pick the
                # sweep back up.
                self.supervisor.drain_finished(drained)
        if partial:
            return PartialBatch(results=list(results), holes=holes)
        return [r for r in results if r is not None]

    def _run_serial(
        self,
        keyed: Sequence[Tuple[Cell, str]],
        misses: Sequence[int],
        results: List[Optional[CellResult]],
        fail_fast: bool,
        partial: bool,
        batching: bool,
    ) -> List[Hole]:
        """The in-order miss loop: each cell retries in place before the
        next one starts.  With ``batching``, aggregate-fidelity outcomes
        precomputed by :meth:`_batch_outcomes` stand in for attempts; a
        fail-fast skip discards its outcome, and ``SIMULATE_CALLS`` is
        charged one per *kept* batch result, so the warm-cache
        zero-simulation guarantee holds identically."""
        global SIMULATE_CALLS
        precomputed = self._batch_outcomes(keyed, misses) if batching else {}
        holes: List[Hole] = []
        oom_message: Optional[str] = None
        for idx in misses:
            cell, key = keyed[idx]
            if oom_message is not None:
                result = CellResult(key=key, timed=None, oom=oom_message, skipped=True)
                results[idx] = result
                self.stats.skipped += 1
                self.progress.cell_finished(cell, result, from_cache=False)
                continue
            refused = self._supervise_admit(cell, key)
            if refused is not None:
                self._skip_supervised(refused, holes, partial)
                continue
            result = precomputed.get(idx)
            if result is not None:
                SIMULATE_CALLS += 1
            else:
                result = self._attempt_serial(cell, key, idx, holes, partial)
                if result is None:
                    continue
            results[idx] = result
            self._finish_executed(idx, cell, key, result)
            if fail_fast and self.jobs == 1 and result.oom is not None:
                oom_message = result.oom
        return holes

    def _attempt_serial(
        self, cell: Cell, key: str, idx: int, holes: List[Hole], partial: bool
    ) -> Optional[CellResult]:
        """One cell's attempts, in-process, with backoff slept between
        them: the result, or None once the cell has given up."""
        spec = self.injector.spec if self.injector.enabled else None
        for attempt in itertools.count():
            self._log_fault_decision(key, idx, attempt)
            [outcome] = _execute_attempts(
                [(cell, key, spec, attempt)], self.retry.cell_timeout_s
            )
            if not isinstance(outcome, Exception):
                return outcome
            delay = self._charge_failure(cell, key, idx, attempt, outcome, holes, partial)
            if delay is None:
                return None
            if delay > 0:
                time.sleep(delay)

    def _run_pool(
        self,
        keyed: Sequence[Tuple[Cell, str]],
        misses: Sequence[int],
        results: List[Optional[CellResult]],
        partial: bool,
    ) -> List[Hole]:
        """The pool miss loop: a sliding window with at most one task
        per worker in flight, each task a chunk of attempts for
        :func:`_execute_attempts`, so a fault re-runs only its own cell.

        A chunk holds ``ceil(len(ready) / (4 * workers))`` cells —
        ``pool.map``'s heuristic, recomputed at each dispatch so chunks
        shrink toward the tail — or one cell when supervised, because
        admission, the breaker's single half-open probe and a drain act
        per cell at dispatch.  Cells backing off nap in a heap without
        holding a worker.  Results are booked in completion order.
        """
        spec = self.injector.spec if self.injector.enabled else None
        timeout_s = self.retry.cell_timeout_s
        holes: List[Hole] = []
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        workers = min(self.jobs, len(misses))
        done: "queue.SimpleQueue" = queue.SimpleQueue()
        attempts = dict.fromkeys(misses, 0)  # next attempt number per cell
        ready = deque(misses)  # cells ready to dispatch, FIFO
        napping: List[Tuple[float, int]] = []  # (wake_at, idx) backoff heap
        inflight = 0  # tasks dispatched and not yet answered
        with ctx.Pool(workers) as pool:
            while ready or napping or inflight:
                now = time.monotonic()
                if self._supervised and self.supervisor.draining:
                    # A drain refuses everything anyway — wake the
                    # nappers now instead of sleeping out their backoff.
                    while napping:
                        ready.append(heapq.heappop(napping)[1])
                while napping and napping[0][0] <= now:
                    ready.append(heapq.heappop(napping)[1])
                while ready and inflight < workers:
                    size = 1 if self._supervised else math.ceil(len(ready) / (4 * workers))
                    chunk: List[int] = []
                    while ready and len(chunk) < size:
                        idx = ready.popleft()
                        cell, key = keyed[idx]
                        refused = self._supervise_admit(cell, key)
                        if refused is not None:
                            self._skip_supervised(refused, holes, partial)
                            continue
                        self._log_fault_decision(key, idx, attempts[idx])
                        chunk.append(idx)
                    if not chunk:
                        continue
                    inflight += 1
                    pool.apply_async(
                        _execute_attempts,
                        ([(*keyed[i], spec, attempts[i]) for i in chunk], timeout_s),
                        callback=lambda outcomes, chunk=chunk: done.put((chunk, outcomes)),
                        # A chunk whose outcomes could not travel back
                        # fails each of its attempts with that error.
                        error_callback=lambda exc, chunk=chunk: done.put(
                            (chunk, [exc] * len(chunk))
                        ),
                    )
                if not inflight:
                    # Nothing running: either everyone is napping (sleep
                    # to the next wake) or the supervisor refused every
                    # ready cell and the loop is about to finish.
                    if napping:
                        time.sleep(max(0.0, napping[0][0] - time.monotonic()))
                    continue
                try:
                    # With a free worker and nappers pending, wake up in
                    # time to redispatch them even if nothing completes.
                    timeout = (
                        max(0.0, napping[0][0] - time.monotonic())
                        if napping and inflight < workers
                        else None
                    )
                    chunk, outcomes = done.get(timeout=timeout)
                except queue.Empty:
                    continue
                inflight -= 1
                for idx, outcome in zip(chunk, outcomes):
                    cell, key = keyed[idx]
                    if not isinstance(outcome, Exception):
                        results[idx] = outcome
                        self._finish_executed(idx, cell, key, outcome)
                        continue
                    attempt = attempts[idx]
                    attempts[idx] = attempt + 1
                    delay = self._charge_failure(
                        cell, key, idx, attempt, outcome, holes, partial
                    )
                    if delay is None:
                        continue
                    if delay > 0:
                        heapq.heappush(napping, (time.monotonic() + delay, idx))
                    else:
                        ready.append(idx)
        return holes

    def _batch_outcomes(
        self, keyed: Sequence[Tuple[Cell, str]], misses: Sequence[int]
    ) -> Dict[int, CellResult]:
        """Simulate the aggregate-fidelity misses through the vectorized
        batch kernel, keyed by batch index.

        Misses are grouped by ``(collector, config identity)`` — the two
        axes :func:`repro.jvm.batch.simulate_batch` shares across a
        batch — and each group runs as one struct-of-arrays simulation.
        Everything else (full/auto fidelity) is left to the serial
        loop's scalar attempts.
        """
        from repro.jvm.batch import BatchCell, BatchSpec, simulate_batch

        groups: Dict[Tuple[str, int], List[int]] = {}
        for idx in misses:
            cell = keyed[idx][0]
            if getattr(cell.config, "fidelity", None) == "aggregate":
                groups.setdefault((cell.collector, id(cell.config)), []).append(idx)
        outcomes: Dict[int, CellResult] = {}
        for (collector, _), indices in groups.items():
            config = keyed[indices[0]][0].config
            batch_cells = tuple(
                BatchCell(
                    spec=keyed[i][0].spec,
                    heap_mb=keyed[i][0].heap_mb,
                    invocation=keyed[i][0].invocation,
                )
                for i in indices
            )
            started = time.perf_counter()
            batch = simulate_batch(
                BatchSpec(
                    collector=collector,
                    cells=batch_cells,
                    iterations=config.iterations,
                    machine=config.machine,
                    tuning=config.tuning,
                    duration_scale=config.duration_scale,
                    environment=config.environment,
                )
            )
            # The batch is one shared pass: attribute its wall time
            # evenly so per-cell durations stay meaningful to sinks.
            per_cell_s = (time.perf_counter() - started) / len(indices)
            for i, outcome in zip(indices, batch.outcomes):
                key = keyed[i][1]
                if outcome.ok:
                    outcomes[i] = CellResult(
                        key=key, timed=outcome.run.timed, duration_s=per_cell_s
                    )
                else:
                    outcomes[i] = CellResult(
                        key=key, timed=None, oom=outcome.oom, duration_s=per_cell_s
                    )
        return outcomes

    def _log_fault_decision(self, key: str, idx: int, attempt: int) -> None:
        """Record the injector's (deterministic) call for this attempt so
        the flight recorder can show it and ``stats.faults`` counts it —
        the parent redraws the same decision the worker will, which is
        what seeded injection buys."""
        if self.injector.enabled:
            kind = self.injector.decide(key, attempt)
            if kind is not None:
                self.stats.faults += 1
                self._attempt_log.setdefault(idx, []).append(("fault", kind, attempt))

    def _charge_failure(
        self, cell: Cell, key: str, idx: int, attempt: int,
        exc: Exception, holes: List[Hole], partial: bool,
    ) -> Optional[float]:
        """Account for one failed attempt.  Returns the backoff delay to
        charge before retrying, or None when the cell gives up
        (permanent failure, or attempts exhausted): the supervisor hears
        first (a give-up is what trips the family's circuit breaker),
        then partial mode holes the cell and strict mode raises
        :class:`~repro.resilience.CellExecutionError` chained to ``exc``.
        """
        if isinstance(exc, CellTimeout):
            self.stats.timeouts += 1
        if classify(exc) == "transient" and attempt + 1 < self.retry.max_attempts:
            delay = self.retry.delay_s(key, attempt)
            self.stats.retries += 1
            self._attempt_log.setdefault(idx, []).append(
                ("retry", attempt, delay, str(exc))
            )
            return delay
        hole = Hole(
            cell=cell,
            key=key,
            attempts=attempt + 1,
            error=str(exc),
            reason="timeout" if isinstance(exc, CellTimeout) else "gave_up",
        )
        self.stats.gave_up += 1
        if self._supervised:
            self.supervisor.record_failure(cell.spec.name, cell.collector)
        if not partial:
            raise CellExecutionError(key, hole.attempts, hole.error) from exc
        holes.append(hole)
        self.progress.cell_failed(cell, hole)
        return None

    def _supervise_admit(self, cell: Cell, key: str) -> Optional[Hole]:
        """Ask the supervisor whether a pending miss may start.  Returns
        the typed hole to record when it may not (None: admitted)."""
        if not self._supervised:
            return None
        refused = self.supervisor.admit(cell.spec.name, cell.collector)
        if refused is None:
            return None
        reason, detail = refused
        return Hole(cell=cell, key=key, attempts=0, error=detail, reason=reason)

    def _skip_supervised(self, hole: Hole, holes: List[Hole], partial: bool) -> None:
        """A cell the supervisor refused to start: count it under its
        reason (exactly one stats field per hole), then hole in partial
        mode or raise in strict mode — same contract as a give-up in
        :meth:`_charge_failure` but without touching the attempt-level
        counters, because nothing was attempted."""
        if hole.reason == "budget":
            self.stats.budget_skipped += 1
        elif hole.reason == "breaker":
            self.stats.breaker_skipped += 1
        else:
            self.stats.drained += 1
        if not partial:
            raise CellExecutionError(hole.key, hole.attempts, hole.error)
        holes.append(hole)
        self.progress.cell_failed(hole.cell, hole)

    def _finish_executed(
        self, idx: int, cell: Cell, key: str, result: CellResult
    ) -> None:
        """Post-success bookkeeping for every executed miss: stats + cache
        (via ``_record``), the supervisor's cost model, and injected
        cache-entry corruption (*after* the write, so the tear is observed
        by the next reader, exactly like real disk rot)."""
        self._record(cell, result)
        if self._supervised:
            # Feed the cost model (and close any half-open breaker): a
            # negative result still counts — the harness *ran* the cell.
            self.supervisor.observe(cell.spec.name, cell.collector, result.duration_s)
        if self.injector.enabled and self.cache is not None and self.injector.corrupts(key):
            if corrupt_entry(self.cache.path_for(key)):
                self.stats.faults += 1
                self._attempt_log.setdefault(idx, []).append(("fault", "corrupt", 0))

    def _trace_batch(
        self,
        keyed: Sequence[Tuple[Cell, str]],
        results: Sequence[Optional[CellResult]],
        hit_indices,
        incidents: Sequence[tuple] = (),
    ) -> None:
        """Emit one batch's flight-recorder events.

        Runs as a post-pass over the assembled results so recording can
        never perturb execution, and is deterministic regardless of pool
        scheduling: executed cells are attributed to workers round-robin
        in submission order and laid out on per-worker simulated-time
        tracks (a cell's extent is its timed iteration's simulated wall
        time).  Each cell gets its own display track carrying the cell
        span with the iteration's GC pauses, concurrent spans, and
        allocation stalls nested inside; cache hits appear as zero-work
        spans plus :class:`~repro.observability.CacheHit` events.
        """
        recorder = self.recorder
        batch_start = min(self._worker_clocks)
        next_worker = 0
        # Supervision incidents go on the batch track at the batch start:
        # refused cells never ran, so they have no timeline of their own.
        for record in incidents:
            if record[0] == "budget":
                _, family, estimate, remaining = record
                recorder.emit(
                    flight.BudgetExceeded(
                        ts=batch_start,
                        family="/".join(family),
                        estimate_s=estimate,
                        remaining_s=remaining,
                    )
                )
            elif record[0] == "breaker":
                _, family, failures = record
                recorder.emit(
                    flight.BreakerOpened(
                        ts=batch_start, family="/".join(family), failures=failures
                    )
                )
            else:
                recorder.emit(flight.DrainStarted(ts=batch_start, signal=record[1]))
        for idx, ((cell, key), result) in enumerate(zip(keyed, results)):
            if result is None:
                # Supervised refusals and give-ups leave genuine gaps in
                # partial mode — nothing ran, nothing to trace.
                continue
            track = self._next_track
            self._next_track += 1
            cached = idx in hit_indices
            if cached or result.skipped:
                worker = flight.CACHE_WORKER
                start = batch_start
                dur = 0.0
            else:
                worker = next_worker % self.jobs
                next_worker += 1
                start = self._worker_clocks[worker]
                dur = result.timed.wall_s if result.timed is not None else 0.0
                self._worker_clocks[worker] = start + dur
            if cached:
                recorder.emit(
                    flight.CacheHit(
                        ts=start, track=track, key=key, negative=result.oom is not None
                    )
                )
            elif not result.skipped:
                recorder.emit(flight.CacheMiss(ts=start, track=track, key=key))
            for record in self._attempt_log.get(idx, ()):
                if record[0] == "fault":
                    recorder.emit(
                        flight.FaultInjected(
                            ts=start, track=track, key=key,
                            kind=record[1], attempt=record[2],
                        )
                    )
                else:
                    recorder.emit(
                        flight.RetryAttempt(
                            ts=start, track=track, key=key,
                            attempt=record[1], delay_s=record[2], error=record[3],
                        )
                    )
            recorder.emit(
                flight.CellSpan(
                    ts=start,
                    track=track,
                    dur=dur,
                    benchmark=cell.spec.name,
                    collector=cell.collector,
                    heap_mb=cell.heap_mb,
                    invocation=cell.invocation,
                    worker=worker,
                    cached=cached,
                    oom=result.oom,
                    skipped=result.skipped,
                )
            )
            if not cached and result.timed is not None:
                # Aggregate-fidelity results carry no per-event telemetry;
                # their cell span still appears, just with nothing nested.
                telem = result.timed.telemetry
                if telem is None:
                    continue
                for pause in telem.pauses:
                    recorder.emit(
                        flight.GcPause(
                            ts=start + pause.start,
                            track=track,
                            dur=pause.duration,
                            kind=pause.kind,
                        )
                    )
                for span in telem.spans:
                    recorder.emit(
                        flight.ConcurrentSpan(
                            ts=start + span.start,
                            track=track,
                            dur=span.duration,
                            gc_threads=span.gc_threads,
                            dilation=span.dilation,
                        )
                    )
                for stall in telem.stalls:
                    recorder.emit(
                        flight.AllocationStall(
                            ts=start + stall.start, track=track, dur=stall.duration
                        )
                    )
        recorder.emit(
            flight.BatchSpan(
                ts=batch_start,
                dur=max(self._worker_clocks) - batch_start,
                cells=len(keyed),
            )
        )

    def _record(self, cell: Cell, result: CellResult) -> None:
        """Account for one freshly-executed cell and persist it."""
        self.stats.executed += 1
        self.stats.execute_s += result.duration_s
        if result.oom is not None:
            self.stats.oom += 1
        if self.cache is not None:
            self.cache.put(result)
        self.progress.cell_finished(cell, result, from_cache=False)


def engine_from_env(environ=os.environ) -> ExecutionEngine:
    """Build an engine from ``CHOPIN_*`` environment variables — how the
    benchmark harness threads parallelism, caching, and resilience
    through pytest without new command-line plumbing.

    A thin wrapper over :mod:`repro.harness.config`, which owns the
    variable list, the parsing, and the flag > env > default precedence
    shared with the ``chopin`` CLI.  Recognised: ``CHOPIN_JOBS``,
    ``CHOPIN_CACHE_DIR``, ``CHOPIN_NO_CACHE``, ``CHOPIN_PROGRESS``,
    ``CHOPIN_RETRIES``, ``CHOPIN_CELL_TIMEOUT`` (seconds),
    ``CHOPIN_CHAOS_RATE``, ``CHOPIN_CHAOS_SEED``, ``CHOPIN_BUDGET``
    (wall-clock deadline budget, seconds), ``CHOPIN_BREAKER``
    (circuit-breaker threshold, consecutive give-ups),
    ``CHOPIN_FIDELITY``, and ``CHOPIN_BATCH`` (vectorized batch
    execution).  Malformed values raise a ``ValueError`` naming the
    variable and the accepted format instead of a bare parse error.
    """
    from repro.harness.config import engine_from_config, harness_config

    return engine_from_config(harness_config(environ))
