"""Collector framework: the interface every simulated GC implements.

A collector is instantiated once per simulated run.  The simulator asks it
two questions, repeatedly:

1. :meth:`Collector.trigger_free_mb` — at what level of free space should
   the next collection cycle begin?
2. :meth:`Collector.plan_cycle` — what does that cycle look like: which
   stop-the-world segments, how much concurrent work on how many threads,
   what the heap looks like afterwards, and whether allocation is paced
   (throttled) while the cycle runs.

Everything that differentiates Serial (1998) from ZGC (2018) — pause
structure, parallelism, barrier taxes, footprint, pacing — is expressed
through this interface, so the simulator loop itself is collector-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.jvm import barriers as barrier_model
from repro.jvm.cpu import Machine
from repro.jvm.heap import Heap


@dataclass(frozen=True)
class GcTuning:
    """Throughput constants shared by the collector models.

    These are the simulator's analogue of microarchitectural reality: how
    fast a GC worker thread can mark, copy, or do concurrent work.  They are
    deliberately centralized so calibration touches one place.
    """

    # STW work rates, MB per second per worker thread.
    mark_rate_mb_s: float = 2000.0
    copy_rate_mb_s: float = 1600.0
    # Concurrent work is slower per thread: it contends with mutators and
    # pays barrier-related synchronization costs.
    concurrent_rate_mb_s: float = 1100.0
    # Fixed per-pause cost: safepoint rendezvous, root scanning floor.
    pause_floor_s: float = 0.00015
    # Sub-linear parallel scaling exponent for STW worker teams.
    efficiency_exponent: float = 0.85


def team_rates(machine: Machine, tuning: GcTuning) -> Tuple[float, ...]:
    """Concurrent work rate (MB/s) of a team of ``workers`` threads,
    indexed by ``int(workers)``.

    Entry ``i`` is ``concurrent_rate_mb_s * parallel_speedup(max(i, 1))``.
    The speedup stops growing at the hardware-thread count, so a larger
    team reads the last entry.
    """
    return tuple(
        tuning.concurrent_rate_mb_s
        * machine.parallel_speedup(max(i, 1), tuning.efficiency_exponent)
        for i in range(machine.hardware_threads + 1)
    )


class PauseSegment:
    """One stop-the-world segment of a cycle.

    A plain ``__slots__`` class, not a dataclass: collectors build one to
    three of these per GC cycle, making construction cost part of the
    simulator's innermost loop.  Treat instances as immutable: a pause
    that never changes over a run is built once and shared by every
    plan that uses it.
    """

    __slots__ = ("duration_s", "workers", "kind")

    def __init__(self, duration_s: float, workers: float, kind: str) -> None:
        if duration_s < 0:
            raise ValueError("pause duration cannot be negative")
        if workers <= 0:
            raise ValueError("pause must use at least a fraction of a worker")
        self.duration_s = duration_s
        self.workers = workers
        self.kind = kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PauseSegment(duration_s={self.duration_s!r}, "
            f"workers={self.workers!r}, kind={self.kind!r})"
        )


class CyclePlan:
    """A complete description of one collection cycle.

    The simulator executes ``pre_pauses``, then the concurrent phase (if
    any), then ``post_pauses``, then applies the heap effect described by
    ``survival_rate``/``promotion_fraction`` (young-style accounting) or
    ``full_live_target_mb`` (full-compaction accounting).  For concurrent
    plans, allocation performed *during* the cycle survives as floating
    garbage.  ``pace_alloc_to_mb_s`` caps the allocation rate during the
    concurrent phase (Shenandoah's pacer); ``None`` means unpaced, and the
    mutator stalls outright if it exhausts the heap mid-cycle.

    Like :class:`PauseSegment`, a plain ``__slots__`` class built once per
    GC cycle on the simulator's hot path.  Treat instances as immutable.
    """

    __slots__ = (
        "kind",
        "pre_pauses",
        "concurrent_work_mb",
        "concurrent_threads",
        "post_pauses",
        "survival_rate",
        "promotion_fraction",
        "full_live_target_mb",
        "pace_alloc_to_mb_s",
        "old_reclaim_mb",
    )

    def __init__(
        self,
        kind: str,
        pre_pauses: Tuple[PauseSegment, ...] = (),
        concurrent_work_mb: float = 0.0,
        concurrent_threads: float = 0.0,
        post_pauses: Tuple[PauseSegment, ...] = (),
        survival_rate: Optional[float] = None,
        promotion_fraction: Optional[float] = None,
        full_live_target_mb: Optional[float] = None,
        pace_alloc_to_mb_s: Optional[float] = None,
        # Old-generation garbage handed back by this cycle (G1 mixed pauses).
        old_reclaim_mb: float = 0.0,
    ) -> None:
        if concurrent_work_mb < 0:
            raise ValueError("concurrent work cannot be negative")
        if concurrent_work_mb > 0 and concurrent_threads <= 0:
            raise ValueError("concurrent work requires concurrent threads")
        is_young = survival_rate is not None
        is_full = full_live_target_mb is not None
        if is_young == is_full:
            raise ValueError("a cycle is either young-style or full-style")
        if is_young and promotion_fraction is None:
            raise ValueError("young-style cycles need a promotion fraction")
        self.kind = kind
        self.pre_pauses = pre_pauses
        self.concurrent_work_mb = concurrent_work_mb
        self.concurrent_threads = concurrent_threads
        self.post_pauses = post_pauses
        self.survival_rate = survival_rate
        self.promotion_fraction = promotion_fraction
        self.full_live_target_mb = full_live_target_mb
        self.pace_alloc_to_mb_s = pace_alloc_to_mb_s
        self.old_reclaim_mb = old_reclaim_mb


class Collector(ABC):
    """Base class for the five production collector models.

    Subclasses set the class attributes and implement the trigger and
    planning methods.  ``spec`` is the workload spec (duck-typed here to
    avoid a circular import; see :mod:`repro.workloads.spec`).
    """

    NAME: str = "abstract"
    YEAR: int = 0
    COMPRESSED_OOPS: bool = True
    #: Multiplier on mutator CPU from write/read barriers and allocation
    #: path overhead, relative to a barrier-free runtime, for the
    #: suite-median workload.  The per-workload tax (``self.mutator_tax``)
    #: rescales the barrier portion by the workload's operation rates.
    MUTATOR_TAX: float = 1.0
    #: Which mutator operations this collector's barriers instrument.
    BARRIERS: "barrier_model.BarrierSet" = barrier_model.CARD_TABLE
    #: Fraction of heap capacity reserved for collector metadata and, for
    #: evacuating collectors, the evacuation reserve.
    RESERVE_FRACTION: float = 0.02

    def __init__(self, spec, machine: Machine, tuning: GcTuning, rng: np.random.Generator):
        self.spec = spec
        self.machine = machine
        self.tuning = tuning
        self.rng = rng
        #: Reachable memory accumulated beyond the workload's base live set
        #: (leakage, GLK).  Collections can never reclaim it.
        self.extra_live_mb = 0.0
        #: Per-workload mutator tax: the baseline barrier cost rescaled by
        #: this workload's reference-operation rates.
        self.mutator_tax = barrier_model.mutator_tax(
            self.MUTATOR_TAX, self.BARRIERS, getattr(spec, "operation_rates", None)
        )
        # stw_pause_for is the hottest call in the simulator, and both of
        # its non-argument inputs are per-instance constants (the machine
        # and tuning never change after construction) — compute them once.
        workers = self.stw_workers()
        self._stw_workers_f = float(workers)
        self._stw_speedup = self.machine.parallel_speedup(
            workers, self.tuning.efficiency_exponent
        )
        # live_footprint_mb runs on every full-GC plan; its first term is
        # a spec constant (only extra_live_mb varies over a run).
        self._live_base_mb = self.spec.live_mb * self.footprint_factor()
        self._team_rates = team_rates(machine, tuning)

    # ------------------------------------------------------------------
    # Footprint
    # ------------------------------------------------------------------
    def footprint_factor(self) -> float:
        """Live-set inflation relative to the compressed-oops baseline.

        Collectors without compressed pointers (ZGC) carry a per-workload
        inflation given by the GMU/GMD ratio of nominal minimum heaps.
        """
        if self.COMPRESSED_OOPS:
            return 1.0
        return max(1.0, self.spec.minheap_nocomp_mb / self.spec.minheap_mb)

    def live_footprint_mb(self) -> float:
        """The workload's long-lived live set as this collector stores it,
        including any leaked (reachable, never-collectable) memory."""
        return self._live_base_mb + self.extra_live_mb

    def min_heap_mb(self) -> float:
        """Smallest heap this collector can run the workload in."""
        live = self.live_footprint_mb()
        headroom = max(0.5, 0.04 * live)
        return (live + headroom) / (1.0 - self.RESERVE_FRACTION)

    # ------------------------------------------------------------------
    # Parallel team helpers
    # ------------------------------------------------------------------
    def stw_workers(self) -> int:
        """Worker threads used in stop-the-world pauses."""
        return 1

    def stw_pause_for(self, work_mb: float, rate_mb_s: float, kind: str) -> PauseSegment:
        """Build a pause segment for ``work_mb`` of STW work."""
        duration = self.tuning.pause_floor_s + work_mb / (rate_mb_s * self._stw_speedup)
        return PauseSegment(duration_s=duration, workers=self._stw_workers_f, kind=kind)

    # ------------------------------------------------------------------
    # The two questions the simulator asks
    # ------------------------------------------------------------------
    @abstractmethod
    def trigger_free_mb(self, heap: Heap) -> float:
        """Free space (MB) at or below which the next cycle should start."""

    @abstractmethod
    def plan_cycle(self, heap: Heap) -> CyclePlan:
        """Plan the cycle to run now, given heap state."""

    def notify_cycle_complete(self, heap: Heap, plan: CyclePlan) -> None:
        """Hook for collectors with internal state machines (G1)."""

    def background_concurrent_cpu_s(self, alloc_mb: float, wall_s: float) -> float:
        """CPU burned by always-on collector service threads over a run.

        Stop-the-world collectors have none.  G1's concurrent refinement
        threads process dirty cards in proportion to mutation activity —
        the main reason its task clock diverges from its wall clock on
        workloads that leave cores idle (the paper's cassandra analysis).
        """
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} ({self.YEAR})>"
