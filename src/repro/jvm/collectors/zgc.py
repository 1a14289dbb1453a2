"""ZGC (2018): fully concurrent with colored pointers — and no compressed
oops.

ZGC's pauses are sub-millisecond regardless of heap size; everything else
happens concurrently behind load barriers.  Two modelled consequences drive
the paper's findings:

- **Footprint**: ZGC does not support compressed pointers, so the live set
  inflates by the workload's GMU/GMD ratio.  This is why the paper plots
  ZGC (marked ZGC*) only at heap multiples where it can actually run, and
  why its curves begin at larger multiples in Figure 1.
- **Allocation stalls**: without a pacer, a mutator that exhausts the heap
  mid-cycle blocks outright until the cycle completes.
"""

from __future__ import annotations

from repro.jvm import barriers as barrier_model
from repro.jvm.collectors.base import CyclePlan
from repro.jvm.collectors.concurrent import ConcurrentCollector
from repro.jvm.heap import Heap


class ZgcCollector(ConcurrentCollector):
    """Concurrent, region-based, colored-pointer collector (non-generational,
    as the paper's ZGC*)."""

    NAME = "ZGC"
    YEAR = 2018
    COMPRESSED_OOPS = False
    MUTATOR_TAX = 1.07  # colored-pointer load barrier
    BARRIERS = barrier_model.COLORED_POINTER
    RESERVE_FRACTION = 0.06

    CYCLE_WORK_FACTOR = 1.25
    TRIGGER_SAFETY = 1.2

    def __init__(self, spec, machine, tuning, rng):
        super().__init__(spec, machine, tuning, rng)
        # ZGC pauses do O(1) work (flip phases, scan thread-local roots),
        # so every pause of a run is the same: built once, shared.
        self._mark_start = (self._tiny_pause("mark-start"),)
        self._mark_end = (self._tiny_pause("mark-end"), self._tiny_pause("relocate-start"))

    def default_concurrent_workers(self) -> float:
        # ZGC sizes its concurrent team adaptively; a quarter of the cores
        # plus one matches its default heuristics at rest.
        return max(1.0, self.machine.cores / 4.0 + 1.0)

    def _tiny_pause(self, kind: str):
        return self.stw_pause_for(0.0, self.tuning.mark_rate_mb_s, kind)

    def plan_cycle(self, heap: Heap) -> CyclePlan:
        workers, work, _ = self._size_cycle(heap)
        return CyclePlan(
            kind="concurrent",
            pre_pauses=self._mark_start,
            concurrent_work_mb=work,
            concurrent_threads=workers,
            post_pauses=self._mark_end,
            full_live_target_mb=self.live_footprint_mb(),
            pace_alloc_to_mb_s=None,  # no pacer: allocation stalls instead
        )
