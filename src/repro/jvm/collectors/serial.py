"""The Serial collector (1998): single-threaded, stop-the-world, generational.

Serial is the oldest design in OpenJDK 21 and — the paper's central
observation — still the cheapest in *total CPU* terms: all of its work is
easily attributable STW time, its barriers are a simple card table, and it
wastes nothing on parallel coordination.  Its weakness is wall-clock time
(one worker does everything) and pause length.
"""

from __future__ import annotations

from repro.jvm.collectors.base import Collector, CyclePlan
from repro.jvm.heap import Heap


class SerialCollector(Collector):
    """Generational mark-compact with one GC thread."""

    NAME = "Serial"
    YEAR = 1998
    MUTATOR_TAX = 1.015  # card-table write barrier + bump allocation
    RESERVE_FRACTION = 0.01

    #: Fraction of the old-generation headroom given to eden.
    YOUNG_FRACTION = 0.33
    #: Old occupancy (fraction of usable) that forces a full collection.
    FULL_GC_THRESHOLD = 0.90

    def stw_workers(self) -> int:
        return 1

    def trigger_free_mb(self, heap: Heap) -> float:
        # Eden is YOUNG_FRACTION of the headroom above the old
        # generation, at least 0.5 MB; the rest of the free space is
        # left when the next cycle triggers.  Runs once per loop step.
        headroom = heap.usable_mb - heap.live_mb
        eden = self.YOUNG_FRACTION * headroom if headroom > 0.0 else 0.0
        if eden < 0.5:
            eden = 0.5
        free = headroom - eden
        return free if free > 0.0 else 0.0

    def plan_cycle(self, heap: Heap) -> CyclePlan:
        if heap.live_mb >= self.FULL_GC_THRESHOLD * heap.usable_mb:
            return self._full_plan(heap)
        return self._young_plan(heap)

    def _young_plan(self, heap: Heap) -> CyclePlan:
        survivors = heap.young_mb * self.spec.survival_rate
        # Copy survivors plus scan the card-marked portion of the old gen.
        work = survivors + 0.02 * heap.live_mb
        pause = self.stw_pause_for(work, self.tuning.copy_rate_mb_s, kind="young")
        return CyclePlan(
            kind="young",
            pre_pauses=(pause,),
            survival_rate=self.spec.survival_rate,
            promotion_fraction=self.spec.promotion_fraction,
        )

    def _full_plan(self, heap: Heap) -> CyclePlan:
        live = self.live_footprint_mb()
        # Mark everything reachable, then slide-compact it.
        mark = self.stw_pause_for(heap.occupied_mb, self.tuning.mark_rate_mb_s, kind="full-mark")
        compact = self.stw_pause_for(live, self.tuning.copy_rate_mb_s, kind="full-compact")
        return CyclePlan(
            kind="full",
            pre_pauses=(mark, compact),
            full_live_target_mb=live,
        )
