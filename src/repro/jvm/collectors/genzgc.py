"""Generational ZGC (2023, JEP 439): ZGC with a young generation.

The paper's latency discussion mentions GenZGC alongside Shenandoah and
ZGC, and its appendix figures cover "OpenJDK 21's six production garbage
collectors".  Generational ZGC keeps ZGC's colored-pointer concurrency and
sub-millisecond pauses but collects a young generation separately, so most
cycles trace only recent allocation instead of the whole live set —
dramatically cheaper under the weak generational hypothesis, at the price
of slightly heavier barriers (remembered-set maintenance on top of the
load barrier).
"""

from __future__ import annotations

from repro.jvm.collectors.base import CyclePlan
from repro.jvm.collectors.zgc import ZgcCollector
from repro.jvm.heap import Heap


class GenZgcCollector(ZgcCollector):
    """Generational colored-pointer collector (ZGC + young generation)."""

    NAME = "GenZGC"
    YEAR = 2023
    MUTATOR_TAX = 1.08  # load barrier + store barrier for remembered sets

    #: Young cycles per old (full live-set) cycle, steady state.
    YOUNG_CYCLES_PER_OLD = 8
    #: Work multiple for a young cycle: survivors plus scan of the young
    #: region set.
    YOUNG_CYCLE_WORK_FACTOR = 1.2

    def __init__(self, spec, machine, tuning, rng):
        super().__init__(spec, machine, tuning, rng)
        self._young_cycles_since_old = 0
        self._young_mark_start = (self._tiny_pause("young-mark-start"),)
        self._young_relocate_start = (self._tiny_pause("young-relocate-start"),)

    def _old_cycle_due(self) -> bool:
        return self._young_cycles_since_old >= self.YOUNG_CYCLES_PER_OLD

    def cycle_work_mb(self, heap: Heap) -> float:
        if self._old_cycle_due():
            return super().cycle_work_mb(heap)
        survivors = heap.young_mb * self.spec.survival_rate
        return self.YOUNG_CYCLE_WORK_FACTOR * (survivors + 0.1 * heap.young_mb)

    def plan_cycle(self, heap: Heap) -> CyclePlan:
        if self._old_cycle_due():
            return super().plan_cycle(heap)
        workers, work, _ = self._size_cycle(heap)
        return CyclePlan(
            kind="concurrent-young",
            pre_pauses=self._young_mark_start,
            concurrent_work_mb=work,
            concurrent_threads=workers,
            post_pauses=self._young_relocate_start,
            survival_rate=self.spec.survival_rate,
            promotion_fraction=self.spec.promotion_fraction,
            pace_alloc_to_mb_s=None,
        )

    def notify_cycle_complete(self, heap: Heap, plan: CyclePlan) -> None:
        if plan.kind == "concurrent-young":
            self._young_cycles_since_old += 1
        else:
            self._young_cycles_since_old = 0
        super().notify_cycle_complete(heap, plan)
