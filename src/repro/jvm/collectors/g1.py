"""G1, the Garbage-First collector (2009): regional, incremental, partly
concurrent.

G1 splits the heap into regions, keeps pauses short by evacuating a few
regions at a time, and marks the old generation concurrently.  The model
captures the three behaviours that matter for the paper's analysis:

- frequent *young* pauses with a per-pause remembered-set overhead,
- a *concurrent mark* cycle (triggered at an occupancy threshold, the
  analogue of ``InitiatingHeapOccupancyPercent``) that burns CPU on
  otherwise-idle cores, followed by a handful of more expensive *mixed*
  pauses that reclaim old-generation garbage,
- a *full GC* fallback when the heap is too tight for evacuation —
  the reason G1 degrades sharply near the minimum heap.
"""

from __future__ import annotations

from repro.jvm import barriers as barrier_model
from repro.jvm.collectors.base import Collector, CyclePlan, PauseSegment
from repro.jvm.heap import Heap


class G1Collector(Collector):
    """Garbage-first regional collector."""

    NAME = "G1"
    YEAR = 2009
    MUTATOR_TAX = 1.04  # SATB write barrier + remembered-set maintenance
    BARRIERS = barrier_model.SATB_RSET
    RESERVE_FRACTION = 0.03

    YOUNG_FRACTION = 0.45
    #: Occupancy (fraction of usable) that initiates concurrent marking.
    IHOP = 0.45
    #: Old occupancy that forces the full-GC fallback.
    FULL_GC_THRESHOLD = 0.92
    #: Extra fixed pause cost per young pause: remembered-set scan/update.
    RSET_PAUSE_S = 0.0004
    #: Mixed pauses scheduled after each concurrent mark completes.
    MIXED_PAUSE_COUNT = 3

    def __init__(self, spec, machine, tuning, rng):
        super().__init__(spec, machine, tuning, rng)
        self._marking = False
        self._mixed_remaining = 0
        self._mark_cpu_s = 0.0

    def stw_workers(self) -> int:
        return min(self.machine.cores, 16)

    def concurrent_workers(self) -> float:
        # ConcGCThreads defaults to a quarter of the parallel workers.
        return max(1.0, self.stw_workers() / 4.0)

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
        if self._mixed_remaining > 0:
            return self._mixed_plan(heap)
        # IHOP triggers on old-generation occupancy, like
        # InitiatingHeapOccupancyPercent.
        if not self._marking and heap.live_mb >= self.IHOP * heap.usable_mb:
            return self._concurrent_mark_plan(heap)
        return self._young_plan(heap)

    def background_concurrent_cpu_s(self, alloc_mb: float, wall_s: float) -> float:
        # Concurrent refinement (dirty-card processing proportional to
        # mutation activity) plus the concurrent marking performed this
        # run.  Both run on otherwise-idle cores and never block young
        # collections — which is why G1 marking, unlike a Shenandoah/ZGC
        # cycle, cannot stall allocation.
        refinement = 0.05 * alloc_mb / self.tuning.concurrent_rate_mb_s
        return refinement + self._mark_cpu_s

    def notify_cycle_complete(self, heap: Heap, plan: CyclePlan) -> None:
        if plan.kind == "concurrent-mark":
            self._marking = False
            self._mixed_remaining = self.MIXED_PAUSE_COUNT
        elif plan.kind == "mixed":
            self._mixed_remaining = max(0, self._mixed_remaining - 1)

    # ------------------------------------------------------------------
    def _young_pause(self, heap: Heap, scale: float, kind: str):
        survivors = heap.young_mb * self.spec.survival_rate
        work = (survivors + 0.02 * heap.live_mb) * scale
        # Same floats as stw_pause_for plus the remembered-set surcharge,
        # built as one segment instead of construct-then-copy.
        duration = self.tuning.pause_floor_s + work / (
            self.tuning.copy_rate_mb_s * self._stw_speedup
        )
        return PauseSegment(
            duration_s=duration + self.RSET_PAUSE_S,
            workers=self._stw_workers_f,
            kind=kind,
        )

    def _young_plan(self, heap: Heap) -> CyclePlan:
        return CyclePlan(
            kind="young",
            pre_pauses=(self._young_pause(heap, 1.0, "young"),),
            survival_rate=self.spec.survival_rate,
            promotion_fraction=self.spec.promotion_fraction,
        )

    def _concurrent_mark_plan(self, heap: Heap) -> CyclePlan:
        self._marking = True
        # The young pause doubles as the initial-mark pause.  Marking then
        # traces the live graph concurrently, but — unlike a full
        # Shenandoah/ZGC cycle — young collections proceed while it runs,
        # so it never blocks allocation: its CPU is accounted as background
        # work and the cycle contributes only its remark pause.
        self._mark_cpu_s += 1.2 * heap.live_mb / self.tuning.concurrent_rate_mb_s
        remark = self.stw_pause_for(
            0.08 * heap.live_mb, self.tuning.mark_rate_mb_s, kind="remark"
        )
        return CyclePlan(
            kind="concurrent-mark",
            pre_pauses=(self._young_pause(heap, 1.1, "initial-mark"), remark),
            survival_rate=self.spec.survival_rate,
            promotion_fraction=self.spec.promotion_fraction,
        )

    def _mixed_plan(self, heap: Heap) -> CyclePlan:
        # A mixed pause is a young pause that also evacuates old regions:
        # more expensive, and it gives back a share of the old garbage
        # accumulated since the last mark.
        old_extra = max(heap.live_mb - self.live_footprint_mb(), 0.0)
        reclaim = old_extra / self.MIXED_PAUSE_COUNT
        return CyclePlan(
            kind="mixed",
            pre_pauses=(self._young_pause(heap, 1.3, "mixed"),),
            survival_rate=self.spec.survival_rate,
            promotion_fraction=self.spec.promotion_fraction,
            old_reclaim_mb=reclaim,
        )

    def _full_plan(self, heap: Heap) -> CyclePlan:
        live = self.live_footprint_mb()
        mark = self.stw_pause_for(heap.occupied_mb, self.tuning.mark_rate_mb_s, kind="full-mark")
        compact = self.stw_pause_for(live, self.tuning.copy_rate_mb_s, kind="full-compact")
        self._marking = False
        self._mixed_remaining = 0
        return CyclePlan(
            kind="full",
            pre_pauses=(mark, compact),
            full_live_target_mb=live,
        )
