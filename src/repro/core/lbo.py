"""Lower Bound Overhead (LBO): distilling the real cost of a collector.

Implements the methodology of Cai et al. as used throughout the paper
(Sections 4.5 and 6.2).  The idea:

1. A perfect zero-cost GC would be the ideal baseline.  It does not exist,
   but it can be *approximated*: run with real collectors and subtract the
   costs that are easily attributable to GC (stop-the-world time for wall
   clock; pause CPU plus identified GC-thread CPU for task clock).
2. The lowest such distilled cost — over every collector and every heap
   size measured — is the best available approximation to the ideal, and
   becomes the denominator.
3. The overhead of collector *c* at heap *h* is ``total(c, h) /
   distilled_baseline``.  Because the baseline still contains
   un-attributable GC costs (barriers, locality effects, stalls), this is
   systematically an *underestimate*: a lower bound.

The same machinery produces both the wall-clock and task-clock curves of
Figures 1 and 5 (Recommendation O2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.stats import ConfidenceInterval, confidence_intervals_95, geometric_mean


@dataclass(frozen=True)
class RunCosts:
    """The cost measurements LBO needs from one run.

    ``attributable_wall_s`` is the JVMTI-captured stop-the-world time;
    ``attributable_cpu_s`` is pause CPU plus concurrent GC-thread CPU.
    """

    wall_s: float
    task_s: float
    attributable_wall_s: float
    attributable_cpu_s: float

    def __post_init__(self) -> None:
        if self.wall_s <= 0 or self.task_s <= 0:
            raise ValueError("total costs must be positive")
        if self.attributable_wall_s < 0 or self.attributable_cpu_s < 0:
            raise ValueError("attributable costs cannot be negative")
        if self.attributable_wall_s > self.wall_s:
            raise ValueError("attributable wall time cannot exceed wall time")
        if self.attributable_cpu_s > self.task_s:
            raise ValueError("attributable CPU cannot exceed task clock")

    @property
    def distilled_wall_s(self) -> float:
        return self.wall_s - self.attributable_wall_s

    @property
    def distilled_task_s(self) -> float:
        return self.task_s - self.attributable_cpu_s


def costs_from_iteration(result) -> RunCosts:
    """Adapt an :class:`~repro.jvm.simulator.IterationResult` to LBO."""
    return RunCosts(
        wall_s=result.wall_s,
        task_s=result.task_clock_s,
        attributable_wall_s=result.stw_wall_s,
        attributable_cpu_s=result.gc_pause_cpu_s + result.gc_concurrent_cpu_s,
    )


#: (collector name, heap multiple) -> cost samples over invocations.
CostTable = Mapping[Tuple[str, float], Sequence[RunCosts]]


@dataclass(frozen=True)
class LboPoint:
    """One point on an LBO curve: overhead with its confidence interval."""

    heap_multiple: float
    overhead: ConfidenceInterval


@dataclass(frozen=True)
class LboCurves:
    """LBO curves for one benchmark: per collector, wall and task."""

    benchmark: str
    wall: Dict[str, List[LboPoint]]
    task: Dict[str, List[LboPoint]]
    baseline_wall_s: float
    baseline_task_s: float

    def collectors(self) -> List[str]:
        return sorted(self.wall)

    def point(self, metric: str, collector: str, heap_multiple: float) -> LboPoint:
        curves = self.wall if metric == "wall" else self.task
        for p in curves[collector]:
            if abs(p.heap_multiple - heap_multiple) < 1e-9:
                return p
        raise KeyError(f"no {metric} point for {collector} at {heap_multiple}x")


def distill_baseline(table: CostTable) -> Tuple[float, float]:
    """The distilled (wall, task) baselines: the minimum mean distilled
    cost over every (collector, heap) measured."""
    if not table:
        raise ValueError("cannot distill a baseline from no measurements")
    groups = list(table.values())
    cis = confidence_intervals_95(
        [[c.distilled_wall_s for c in runs] for runs in groups]
        + [[c.distilled_task_s for c in runs] for runs in groups]
    )
    wall = min(ci.mean for ci in cis[: len(groups)])
    task = min(ci.mean for ci in cis[len(groups) :])
    if wall <= 0 or task <= 0:
        raise ValueError("distilled baseline must be positive")
    return wall, task


def lbo_curves(benchmark: str, table: CostTable) -> LboCurves:
    """Compute the per-benchmark LBO curves from a cost table."""
    baseline_wall, baseline_task = distill_baseline(table)
    points = sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    cis = confidence_intervals_95(
        [[c.wall_s / baseline_wall for c in runs] for _, runs in points]
        + [[c.task_s / baseline_task for c in runs] for _, runs in points]
    )
    wall: Dict[str, List[LboPoint]] = {}
    task: Dict[str, List[LboPoint]] = {}
    for ((collector, multiple), _), wall_ci, task_ci in zip(
        points, cis[: len(points)], cis[len(points) :]
    ):
        wall.setdefault(collector, []).append(LboPoint(multiple, wall_ci))
        task.setdefault(collector, []).append(LboPoint(multiple, task_ci))
    return LboCurves(
        benchmark=benchmark,
        wall=wall,
        task=task,
        baseline_wall_s=baseline_wall,
        baseline_task_s=baseline_task,
    )


def geomean_curves(
    per_benchmark: Sequence[LboCurves], metric: str
) -> Dict[str, List[Tuple[float, float]]]:
    """Suite-wide geometric-mean LBO curves (Figure 1).

    Following the paper, a (collector, heap multiple) point is included
    only if *every* benchmark has it — i.e. the collector could run all
    benchmarks to completion at that multiple.
    """
    if metric not in ("wall", "task"):
        raise ValueError("metric must be 'wall' or 'task'")
    if not per_benchmark:
        raise ValueError("no benchmarks to aggregate")
    first = getattr(per_benchmark[0], metric)
    result: Dict[str, List[Tuple[float, float]]] = {}
    for collector in first:
        multiples = [p.heap_multiple for p in first[collector]]
        for multiple in multiples:
            values = []
            complete = True
            for curves in per_benchmark:
                points = getattr(curves, metric).get(collector, [])
                match = [p for p in points if abs(p.heap_multiple - multiple) < 1e-9]
                if not match:
                    complete = False
                    break
                values.append(match[0].overhead.mean)
            if complete:
                result.setdefault(collector, []).append((multiple, geometric_mean(values)))
    return result
