"""Run supervision: deadline budgets, circuit breakers, graceful shutdown.

The resilience layer (retries, chaos) and the result cache make a sweep
*restartable*; this module makes it *survivable*.  A production-scale
run — the paper's 5-collector × 22-workload × 6-heap-factor matrix — has
three failure modes the retry policy alone cannot answer:

- **running out of wall clock**: a SLURM allocation or CI job has a hard
  time limit, and a sweep that is killed at the limit loses the cells it
  was half way through.  The :class:`Supervisor`'s *deadline budget*
  fits an EWMA cost model (:class:`CostModel`, keyed by
  ``workload × collector``) to completed cells and refuses to start a
  cell that cannot finish before the deadline — the cell becomes a typed
  ``Hole(reason="budget")`` a later run on the same cache fills, instead
  of half-run work the limit would destroy;
- **permanently broken families**: a JVM build that segfaults on one
  workload fails every invocation of every heap size, and burning the
  full retry/backoff schedule on each proves nothing new.  The
  per-family :class:`CircuitBreaker` opens after ``threshold``
  consecutive cells of a family give up, fast-fails the family's
  remaining cells in O(1) (``Hole(reason="breaker")``, zero attempts,
  zero backoff), and *half-open probes* let a recovered family close the
  breaker again;
- **interruption**: the first SIGINT/SIGTERM must not abandon cells
  half way.  :meth:`Supervisor.install` converts the first signal into a
  *drain* — in-flight cells finish, everything completed is cached,
  pending cells become ``Hole(reason="drained")``, and a one-line resume
  hint is printed — while a second signal hard-aborts for the impatient.

The supervision contract mirrors the recorder's and the injector's:
supervision decides *whether* a cell runs, never *how* — a cell that
does run produces bit-identical results with or without a supervisor,
and an unconstrained supervisor (no budget, breaker never trips, no
signal) changes nothing at all.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO, Tuple, Union

#: Hole reasons the supervisor can assign (the engine adds ``gave_up``
#: and ``timeout`` for cells that ran and failed).
SUPERVISED_REASONS: Tuple[str, ...] = ("budget", "breaker", "drained")

#: Circuit-breaker states, in lifecycle order.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CostModel:
    """EWMA per-family cost model fitted from completed cells.

    ``observe`` folds one completed cell's wall-clock cost into the
    family's exponentially-weighted moving average; ``estimate`` answers
    "how long will the next cell of this family take?".  A family with
    no history borrows the mean over every known family (the sweep's
    early cells inform its late ones), and a model with no history at
    all answers ``None`` — the budget then admits the cell, because
    refusing work on zero evidence would deadlock a fresh sweep.

    Thread-safe: ``chopin serve`` shares one model across every worker
    thread's supervisor, so ``observe``'s read-modify-write of the EWMA
    dict (and every read of it) takes an internal lock.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._ewma: Dict[Tuple[str, str], float] = {}
        self._lock = threading.Lock()

    def observe(self, family: Tuple[str, str], seconds: float) -> None:
        """Fold one completed cell's cost into the family's average."""
        if seconds < 0:
            raise ValueError("cell costs cannot be negative")
        with self._lock:
            previous = self._ewma.get(family)
            if previous is None:
                self._ewma[family] = seconds
            else:
                self._ewma[family] = (
                    self.alpha * seconds + (1.0 - self.alpha) * previous
                )

    def estimate(self, family: Tuple[str, str]) -> Optional[float]:
        """Expected cost of the family's next cell (None: no data yet)."""
        with self._lock:
            known = self._ewma.get(family)
            if known is not None:
                return known
            if not self._ewma:
                return None
            return sum(self._ewma.values()) / len(self._ewma)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ewma)

    # ------------------------------------------------------------------
    # Persistence: warm starts for repeated sweeps and the planner.

    def to_json(self) -> Dict[str, object]:
        """A JSON-stable snapshot: alpha plus sorted family triples.

        Families are ``[workload, collector, seconds]`` triples rather
        than joined strings, so workload names containing any separator
        round-trip unharmed.
        """
        with self._lock:
            families = sorted(self._ewma.items())
        return {
            "alpha": self.alpha,
            "families": [
                [workload, collector, seconds]
                for (workload, collector), seconds in families
            ],
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "CostModel":
        """Rebuild a model :meth:`to_json` snapshotted."""
        if not isinstance(payload, dict):
            raise ValueError(f"cost model snapshot must be an object, got {type(payload).__name__}")
        model = cls(alpha=float(payload.get("alpha", 0.3)))
        families = payload.get("families", [])
        if not isinstance(families, list):
            raise ValueError("cost model families must be a list of [workload, collector, seconds]")
        for entry in families:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
                raise ValueError(f"malformed cost model family entry: {entry!r}")
            workload, collector, seconds = entry
            seconds = float(seconds)
            if seconds < 0:
                raise ValueError(f"cost model family {workload}/{collector} has negative cost")
            model._ewma[(str(workload), str(collector))] = seconds
        return model

    def save(self, path: Union[str, Path]) -> None:
        """Persist the model so the next run starts warm (atomic write)."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        tmp.replace(path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CostModel":
        """Load a saved model; errors name the offending file."""
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise ValueError(f"{path}: cannot read cost model ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: cost model is not valid JSON ({exc})") from exc
        try:
            return cls.from_json(payload)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


class CircuitBreaker:
    """One family's breaker: closed → open → half-open → closed.

    Counts *consecutive* cells of the family that gave up (exhausted
    their retry budget or hit a permanent error); at ``threshold`` the
    breaker opens and every subsequent cell is skipped in O(1) until
    ``probe_after`` cells have been skipped — then the breaker goes
    half-open and admits exactly one probe.  A successful probe closes
    the breaker (the family recovered: a transient infrastructure
    problem cleared); a failed probe re-opens it and the skip counter
    restarts.  Any success while closed resets the consecutive count.
    """

    def __init__(self, threshold: int, probe_after: int = 8) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be at least 1, got {threshold}")
        if probe_after < 1:
            raise ValueError(f"breaker probe_after must be at least 1, got {probe_after}")
        self.threshold = threshold
        self.probe_after = probe_after
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.skipped = 0  # skips since the breaker last opened
        self.opened_count = 0  # how many times this breaker has opened

    def admit(self) -> bool:
        """Whether the family's next cell may run.

        In the open state this both answers and *counts* — after
        ``probe_after`` refusals the breaker moves to half-open and the
        next call admits a probe.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_HALF_OPEN:
            # One probe at a time: further cells keep fast-failing until
            # the in-flight probe reports back.
            return False
        self.skipped += 1
        if self.skipped >= self.probe_after:
            self.state = BREAKER_HALF_OPEN
            return True
        return False

    def record_success(self) -> None:
        """A cell of the family completed (including a cached OOM)."""
        self.consecutive_failures = 0
        if self.state != BREAKER_CLOSED:
            self.state = BREAKER_CLOSED  # the probe (or a racer) recovered
            self.skipped = 0

    def record_failure(self) -> bool:
        """A cell of the family gave up.  Returns True when this failure
        newly opened the breaker (the caller emits ``BreakerOpened``)."""
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_OPEN  # failed probe: back to fast-failing
            self.skipped = 0
            return False
        self.consecutive_failures += 1
        if self.state == BREAKER_CLOSED and self.consecutive_failures >= self.threshold:
            self.state = BREAKER_OPEN
            self.skipped = 0
            self.opened_count += 1
            return True
        return False


class Supervisor:
    """Wall-clock budget, per-family breakers, and graceful shutdown for
    one sweep.

    Attach to an :class:`~repro.harness.engine.ExecutionEngine` (the
    ``supervisor=`` collaborator) and the engine consults
    :meth:`admit` before starting each cache-missed cell; completed and
    failed cells report back through :meth:`observe` and
    :meth:`record_failure`.  All three supervision axes are optional —
    a ``Supervisor()`` with no budget and no breaker threshold admits
    everything and the sweep is bit-identical to an unsupervised one.

    The deadline clock starts at the first :meth:`admit` call (not at
    construction), so building the supervisor early costs nothing.
    ``clock`` is injectable for tests; production uses
    ``time.monotonic``.
    """

    def __init__(
        self,
        budget_s: Optional[float] = None,
        breaker_threshold: Optional[int] = None,
        probe_after: int = 8,
        ewma_alpha: float = 0.3,
        resume_hint: Optional[str] = None,
        stream: Optional[TextIO] = None,
        clock: Callable[[], float] = time.monotonic,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if budget_s is not None and budget_s <= 0:
            raise ValueError(f"budget must be a positive number of seconds, got {budget_s}")
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError(
                f"breaker threshold must be a positive integer, got {breaker_threshold}"
            )
        if probe_after < 1:
            raise ValueError(f"probe_after must be at least 1, got {probe_after}")
        self.budget_s = budget_s
        self.breaker_threshold = breaker_threshold
        self.probe_after = probe_after
        # A shared (typically CostModel.load-ed) model lets repeated
        # sweeps and the adaptive planner start warm; the default is the
        # classic per-sweep blank slate.
        self.model = cost_model if cost_model is not None else CostModel(alpha=ewma_alpha)
        self.breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        self.resume_hint = resume_hint
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.draining = False
        self.drain_signal = ""  # name of the signal that started the drain
        self._started_at: Optional[float] = None
        self._deadline: Optional[float] = None
        self._installed: List[Tuple[int, object]] = []
        self._lock = threading.Lock()
        #: Supervision incidents for the flight recorder, appended in
        #: decision order: ("budget", family, estimate, remaining),
        #: ("breaker", family, failures), ("drain", signal_name).
        self.incidents: List[tuple] = []

    # ------------------------------------------------------------------
    # Admission control (the engine calls these)

    @property
    def active(self) -> bool:
        """True when the supervisor can actually refuse work."""
        return self.budget_s is not None or self.breaker_threshold is not None

    def start(self) -> None:
        """Start the deadline clock (idempotent; implied by ``admit``)."""
        if self._started_at is None:
            self._started_at = self.clock()
            if self.budget_s is not None:
                self._deadline = self._started_at + self.budget_s

    def remaining_s(self) -> Optional[float]:
        """Wall-clock seconds left in the budget (None: no budget)."""
        if self._deadline is None:
            return None
        return self._deadline - self.clock()

    def breaker_for(self, family: Tuple[str, str]) -> Optional[CircuitBreaker]:
        """The family's breaker, created on first use (None: breakers off)."""
        if self.breaker_threshold is None:
            return None
        breaker = self.breakers.get(family)
        if breaker is None:
            breaker = CircuitBreaker(self.breaker_threshold, self.probe_after)
            self.breakers[family] = breaker
        return breaker

    def admit(self, workload: str, collector: str) -> Optional[Tuple[str, str]]:
        """Decide whether a pending cell may start.

        Returns ``None`` to run the cell, or ``(reason, detail)`` with
        reason one of :data:`SUPERVISED_REASONS` to skip it.  Checked in
        severity order: a drain refuses everything, an open breaker
        refuses its family, and the budget refuses cells the cost model
        says cannot finish.
        """
        self.start()
        family = (workload, collector)
        if self.draining:
            detail = f"drained by {self.drain_signal or 'drain request'}"
            return ("drained", detail)
        breaker = self.breaker_for(family)
        if breaker is not None and not breaker.admit():
            return (
                "breaker",
                f"circuit breaker open for {workload}/{collector} after "
                f"{breaker.consecutive_failures} consecutive failures",
            )
        remaining = self.remaining_s()
        if remaining is not None:
            estimate = self.model.estimate(family)
            if remaining <= 0.0 or (estimate is not None and estimate > remaining):
                shown = 0.0 if estimate is None else estimate
                self.incidents.append(("budget", family, shown, max(0.0, remaining)))
                return (
                    "budget",
                    f"deadline budget exhausted for {workload}/{collector} "
                    f"(estimate {shown:.3f}s > {max(0.0, remaining):.3f}s remaining)",
                )
        return None

    def observe(self, workload: str, collector: str, seconds: float) -> None:
        """A cell of the family completed: feed the cost model and close
        the loop on any half-open breaker."""
        family = (workload, collector)
        self.model.observe(family, seconds)
        breaker = self.breakers.get(family)
        if breaker is not None:
            breaker.record_success()

    def record_failure(self, workload: str, collector: str) -> bool:
        """A cell of the family gave up.  Returns True when the family's
        breaker newly opened (the engine emits ``BreakerOpened``)."""
        family = (workload, collector)
        breaker = self.breaker_for(family)
        if breaker is None:
            return False
        opened = breaker.record_failure()
        if opened:
            self.incidents.append(("breaker", family, breaker.consecutive_failures))
        return opened

    # ------------------------------------------------------------------
    # Graceful shutdown

    def request_drain(self, reason: str = "drain request") -> None:
        """Stop admitting new cells; in-flight cells finish and are
        cached.  Idempotent — also what the first SIGINT/SIGTERM
        calls."""
        with self._lock:
            if self.draining:
                return
            self.draining = True
            self.drain_signal = reason
            self.incidents.append(("drain", reason))

    def drain_finished(self, drained: int) -> None:
        """Called by the engine after a drained batch has flushed: print
        the one-line resume hint."""
        hint = self.resume_hint or "re-run with the same --cache-dir to continue"
        print(
            f"chopin: drained cleanly ({drained} pending cell"
            f"{'s' if drained != 1 else ''} left for later); {hint}",
            file=self.stream,
        )

    def _handle_signal(self, signum: int, frame: object) -> None:
        name = signal.Signals(signum).name if hasattr(signal, "Signals") else str(signum)
        if self.draining:
            # Second signal: the user means it.  Restore default handlers
            # so a third signal reaches the OS, and abort hard.
            self.uninstall()
            raise KeyboardInterrupt(f"hard abort on second {name}")
        self.request_drain(name)
        print(
            f"chopin: {name} received — draining in-flight cells "
            f"(interrupt again to abort immediately)",
            file=self.stream,
        )

    def install(self) -> "Supervisor":
        """Install SIGINT/SIGTERM handlers (main thread only; returns
        self so it chains).  First signal drains, second hard-aborts."""
        if threading.current_thread() is not threading.main_thread():
            return self  # signal.signal would raise; supervision still works
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous = signal.signal(signum, self._handle_signal)
            self._installed.append((signum, previous))
        return self

    def uninstall(self) -> None:
        """Restore the signal handlers ``install`` displaced."""
        while self._installed:
            signum, previous = self._installed.pop()
            signal.signal(signum, previous)

    def __enter__(self) -> "Supervisor":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
