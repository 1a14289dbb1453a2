"""Shared machinery for the fully concurrent collectors (Shenandoah, ZGC).

Both collectors mark, evacuate, and update references while the application
runs, trigger cycles adaptively from projected allocation, and size their
concurrent worker team to the allocation pressure: when the mutator
allocates fast enough to exhaust the heap before a cycle would finish with
the default team, more workers are enlisted (up to the core count) — the
analogue of the adaptive ``ConcGCThreads`` heuristics in OpenJDK.  When
even a full team cannot keep up, the collector's degradation mechanism
takes over: Shenandoah paces (throttles) allocating threads, ZGC lets them
stall outright.
"""

from __future__ import annotations

from typing import Tuple

from repro.jvm.collectors.base import Collector
from repro.jvm.heap import Heap


class ConcurrentCollector(Collector):
    """Base for collectors doing the bulk of their work concurrently."""

    #: Cycle work (mark + evacuate + update) in multiples of the live set.
    CYCLE_WORK_FACTOR = 1.3
    #: Fraction of young (freshly allocated) data a cycle must also scan
    #: (fresh objects are implicitly live but cheap to skip over).
    YOUNG_SCAN_FACTOR = 0.08
    #: Safety factor on the adaptive trigger.
    TRIGGER_SAFETY = 1.3
    #: Fraction of the free space a cycle should leave unconsumed when the
    #: team is sized (headroom against prediction error).
    PACING_TARGET = 0.6

    def __init__(self, spec, machine, tuning, rng):
        super().__init__(spec, machine, tuning, rng)
        # Team-sizing inputs that never change over a run.
        self._base_workers = self.default_concurrent_workers()
        self._max_workers = self.max_concurrent_workers()
        self._inv_efficiency = 1.0 / self.tuning.efficiency_exponent

    def stw_workers(self) -> int:
        return min(self.machine.cores, 16)

    def default_concurrent_workers(self) -> float:
        raise NotImplementedError

    def max_concurrent_workers(self) -> float:
        """Upper bound on the adaptive team.

        Concurrent collectors do not commandeer the whole machine: beyond
        roughly half the cores they throttle or stall the application
        instead.  This bounded expansion is what makes wall-clock overhead
        exceed task-clock overhead under allocation pressure (the paper's
        lusearch analysis): mutators sleep (wall grows) while GC CPU stays
        proportional to the work done.
        """
        return max(self.default_concurrent_workers(), self.machine.cores / 2.0)

    def cycle_work_mb(self, heap: Heap) -> float:
        return self.CYCLE_WORK_FACTOR * (
            heap.live_mb + self.YOUNG_SCAN_FACTOR * heap.young_mb
        )

    def _size_cycle(self, heap: Heap) -> Tuple[float, float, float]:
        """``(workers, work_mb, duration_s)`` of a cycle started now.

        The trigger, every concurrent plan and :meth:`concurrent_workers`
        size a cycle here, once per heap state, so the team formula lives
        in one place.
        """
        work = self.cycle_work_mb(heap)
        workers = self._base_workers
        alloc_rate = self.spec.alloc_rate_mb_s
        free = heap.free_mb
        if alloc_rate > 0 and free > 0:
            budget_s = self.PACING_TARGET * free / alloc_rate
            if budget_s <= 0:
                workers = float(self.machine.cores)
            else:
                needed_speedup = work / (self.tuning.concurrent_rate_mb_s * budget_s)
                if needed_speedup <= 1.0:
                    needed = 1.0
                else:
                    needed = needed_speedup ** self._inv_efficiency
                workers = float(min(max(workers, needed), self._max_workers))
        rates = self._team_rates
        team = int(workers)
        return workers, work, work / (rates[team] if team < len(rates) else rates[-1])

    def concurrent_workers(self, heap: Heap) -> float:
        """Adaptive team size: enough workers that a cycle started now
        finishes within the allocation budget, within [default, maximum]
        team size."""
        return self._size_cycle(heap)[0]

    def trigger_free_mb(self, heap: Heap) -> float:
        expected_alloc = self.spec.alloc_rate_mb_s * self._size_cycle(heap)[2]
        headroom = max(heap.usable_mb - self.live_footprint_mb(), 0.0)
        trigger = self.TRIGGER_SAFETY * expected_alloc
        # Never wait past 90% of headroom, never trigger below 10% used.
        return float(min(max(trigger, 0.10 * headroom), 0.90 * headroom))
