"""Shenandoah (2014): concurrent mark *and* evacuation, with a pacer.

Shenandoah keeps pauses tiny by doing marking, evacuation, and reference
updating concurrently, paying for it with a load-reference barrier in the
mutator and a lot of concurrent CPU.  Its distinguishing mechanism in the
paper's analysis is the *pacer*: when the application allocates faster than
the collector can reclaim, Shenandoah stalls allocating threads a little at
a time ("taxing" allocations) so the cycle can finish.

This is what produces the paper's lusearch result (Section 6.2): wall-clock
overhead beyond 2x at every heap size — the 32 allocating client threads
are throttled — while the *task clock* overhead is far smaller, because
throttled threads are off-CPU.
"""

from __future__ import annotations

from repro.jvm import barriers as barrier_model
from repro.jvm.collectors.base import CyclePlan
from repro.jvm.collectors.concurrent import ConcurrentCollector
from repro.jvm.heap import Heap


class ShenandoahCollector(ConcurrentCollector):
    """Concurrent compacting collector with pacing."""

    NAME = "Shenandoah"
    YEAR = 2014
    MUTATOR_TAX = 1.09  # load-reference barrier + SATB
    BARRIERS = barrier_model.LOAD_REFERENCE
    RESERVE_FRACTION = 0.08  # evacuation reserve

    CYCLE_WORK_FACTOR = 1.35
    #: Pacer headroom: the fraction of free space the pacer budgets for
    #: allocation during a cycle.  Deliberately conservative — the pacer
    #: reserves space for evacuation and prediction error, which is why
    #: allocation-heavy workloads stay throttled even at generous heaps.
    PACE_HEADROOM = 0.55

    def __init__(self, spec, machine, tuning, rng):
        super().__init__(spec, machine, tuning, rng)
        self._mark_pauses_live = None
        self._mark_pauses = None

    def default_concurrent_workers(self) -> float:
        # ConcGCThreads for Shenandoah defaults to half the parallel team.
        return max(1.0, self.stw_workers() / 2.0)

    def _root_scan_pauses(self, live: float):
        """The init-mark and final-mark pause tuples for a ``live`` MB
        live footprint.

        They scan roots, so their cost scales weakly with the live
        footprint — which moves only when leakage grows it between
        iterations.  Memoized on that value.
        """
        if live != self._mark_pauses_live:
            rate = self.tuning.mark_rate_mb_s
            self._mark_pauses = (
                (self.stw_pause_for(0.010 * live, rate, "init-mark"),),
                (self.stw_pause_for(0.015 * live, rate, "final-mark"),),
            )
            self._mark_pauses_live = live
        return self._mark_pauses

    def plan_cycle(self, heap: Heap) -> CyclePlan:
        workers, work, duration = self._size_cycle(heap)
        pace = self.PACE_HEADROOM * heap.free_mb / duration if duration > 0 else None
        live = self.live_footprint_mb()
        init_mark, final_mark = self._root_scan_pauses(live)
        return CyclePlan(
            kind="concurrent",
            pre_pauses=init_mark,
            concurrent_work_mb=work,
            concurrent_threads=workers,
            post_pauses=final_mark,
            full_live_target_mb=live,
            pace_alloc_to_mb_s=pace,
        )
