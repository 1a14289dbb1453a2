"""Lower Bound Overhead methodology."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.lbo import (
    LboCurves,
    LboPoint,
    RunCosts,
    costs_from_iteration,
    distill_baseline,
    geomean_curves,
    lbo_curves,
)
from repro.core.stats import ConfidenceInterval, t_critical_975


def costs(wall, task, stw=0.0, gc_cpu=0.0):
    return RunCosts(
        wall_s=wall, task_s=task, attributable_wall_s=stw, attributable_cpu_s=gc_cpu
    )


class TestRunCosts:
    def test_distilled(self):
        c = costs(10.0, 20.0, stw=2.0, gc_cpu=5.0)
        assert c.distilled_wall_s == pytest.approx(8.0)
        assert c.distilled_task_s == pytest.approx(15.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            costs(0.0, 1.0)
        with pytest.raises(ValueError):
            costs(1.0, 1.0, stw=2.0)
        with pytest.raises(ValueError):
            costs(1.0, 1.0, gc_cpu=2.0)
        with pytest.raises(ValueError):
            RunCosts(wall_s=1.0, task_s=1.0, attributable_wall_s=-0.1, attributable_cpu_s=0.0)


class TestDistillation:
    def test_baseline_is_minimum_distilled(self):
        table = {
            ("Serial", 2.0): [costs(10.0, 10.0, stw=4.0, gc_cpu=4.0)],
            ("G1", 2.0): [costs(8.0, 12.0, stw=1.0, gc_cpu=3.0)],
        }
        wall, task = distill_baseline(table)
        assert wall == pytest.approx(6.0)  # Serial distils wall: 10-4
        assert task == pytest.approx(6.0)  # Serial distils task: 10-4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distill_baseline({})

    def test_baseline_independent_per_metric(self):
        table = {
            ("A", 1.0): [costs(10.0, 30.0, stw=5.0, gc_cpu=1.0)],
            ("B", 1.0): [costs(12.0, 14.0, stw=1.0, gc_cpu=8.0)],
        }
        wall, task = distill_baseline(table)
        assert wall == pytest.approx(5.0)  # from A
        assert task == pytest.approx(6.0)  # from B


class TestCurves:
    def table(self):
        return {
            ("Serial", 1.0): [costs(20.0, 20.0, stw=10.0, gc_cpu=10.0)] * 3,
            ("Serial", 6.0): [costs(11.0, 11.0, stw=1.0, gc_cpu=1.0)] * 3,
            ("G1", 1.0): [costs(14.0, 30.0, stw=3.0, gc_cpu=12.0)] * 3,
            ("G1", 6.0): [costs(10.5, 14.0, stw=0.5, gc_cpu=3.0)] * 3,
        }

    def test_overheads_at_least_one_for_best(self):
        curves = lbo_curves("toy", self.table())
        # Baseline wall = 10.0 (either at 6x); overheads relative to it.
        assert curves.baseline_wall_s == pytest.approx(10.0)
        assert curves.point("wall", "Serial", 6.0).overhead.mean == pytest.approx(1.1)
        assert curves.point("wall", "G1", 6.0).overhead.mean == pytest.approx(1.05)

    def test_lower_bound_property(self):
        """LBO is an underestimate: the reported overhead never exceeds the
        true ratio against a hypothetical zero-cost GC."""
        curves = lbo_curves("toy", self.table())
        for collector in curves.collectors():
            for point in curves.wall[collector]:
                # True app-only cost is <= distilled baseline, so true
                # overhead >= reported overhead >= 1 for the best point.
                assert point.overhead.mean >= 1.0 - 1e-9

    def test_monotone_decreasing_in_heap(self):
        curves = lbo_curves("toy", self.table())
        for collector in curves.collectors():
            points = sorted(curves.task[collector], key=lambda p: p.heap_multiple)
            means = [p.overhead.mean for p in points]
            assert means == sorted(means, reverse=True)

    def test_missing_point_raises(self):
        curves = lbo_curves("toy", self.table())
        with pytest.raises(KeyError):
            curves.point("wall", "Serial", 3.0)

    def test_costs_from_iteration_adapter(self, lusearch, fast_config):
        from repro.harness.runner import measure

        m = measure(lusearch, "G1", lusearch.heap_mb_for(3.0), fast_config)
        c = costs_from_iteration(m.results[0])
        assert c.wall_s == m.results[0].wall_s
        assert c.attributable_wall_s == m.results[0].stw_wall_s


class TestGeomean:
    def curves_for(self, name, scale):
        table = {
            ("Serial", 2.0): [costs(10.0 * scale, 10.0 * scale, stw=2.0 * scale, gc_cpu=2.0 * scale)],
            ("Serial", 6.0): [costs(9.0 * scale, 9.0 * scale, stw=1.0 * scale, gc_cpu=1.0 * scale)],
        }
        return lbo_curves(name, table)

    def test_geomean_of_identical_benchmarks(self):
        per = [self.curves_for("a", 1.0), self.curves_for("b", 7.0)]
        result = geomean_curves(per, "wall")
        # Normalized overheads are scale-free: identical curves.
        solo = {m: v for m, v in result["Serial"]}
        assert solo[6.0] == pytest.approx(9.0 / 8.0)

    def test_incomplete_point_dropped(self):
        a = self.curves_for("a", 1.0)
        partial_table = {("Serial", 6.0): [costs(9.0, 9.0, stw=1.0, gc_cpu=1.0)]}
        b = lbo_curves("b", partial_table)
        result = geomean_curves([a, b], "wall")
        multiples = [m for m, _ in result["Serial"]]
        # 2.0x missing for b: only 6.0x survives (the paper's plotting rule).
        assert multiples == [6.0]

    def test_metric_validated(self):
        with pytest.raises(ValueError):
            geomean_curves([self.curves_for("a", 1.0)], "cpu")
        with pytest.raises(ValueError):
            geomean_curves([], "wall")


@given(
    wall=st.floats(min_value=1.0, max_value=100.0),
    stw_frac=st.floats(min_value=0.0, max_value=0.9),
    extra=st.floats(min_value=0.0, max_value=50.0),
)
def test_property_overhead_at_least_one_within_single_config(wall, stw_frac, extra):
    """With one (collector, heap) the overhead is total/distilled >= 1."""
    c = costs(wall + extra, wall + extra, stw=wall * stw_frac)
    curves = lbo_curves("x", {("C", 2.0): [c]})
    assert curves.point("wall", "C", 2.0).overhead.mean >= 1.0


def per_point_ci(samples):
    """The per-point confidence interval of the original LBO loop."""
    arr = np.asarray(samples, dtype=float)
    mean = float(np.mean(arr))
    if arr.size == 1:
        return ConfidenceInterval(mean=mean, half_width=math.inf, n=1)
    sem = float(np.std(arr, ddof=1)) / math.sqrt(arr.size)
    return ConfidenceInterval(
        mean=mean, half_width=t_critical_975(arr.size - 1) * sem, n=arr.size
    )


def per_point_lbo_curves(benchmark, table):
    """LBO curves computed one (collector, heap) point at a time."""
    baseline_wall = min(
        per_point_ci([c.distilled_wall_s for c in runs]).mean for runs in table.values()
    )
    baseline_task = min(
        per_point_ci([c.distilled_task_s for c in runs]).mean for runs in table.values()
    )
    wall, task = {}, {}
    for (collector, multiple), runs in sorted(table.items()):
        wall.setdefault(collector, []).append(
            LboPoint(multiple, per_point_ci([c.wall_s / baseline_wall for c in runs]))
        )
        task.setdefault(collector, []).append(
            LboPoint(multiple, per_point_ci([c.task_s / baseline_task for c in runs]))
        )
    return LboCurves(benchmark, wall, task, baseline_wall, baseline_task)


def random_table(rng, invocations):
    """A cost table over 5 collectors x 8 heaps; ``invocations`` may be a
    tuple, giving points of mixed sample counts."""
    counts = invocations if isinstance(invocations, tuple) else (invocations,)
    table = {}
    for i, collector in enumerate(("Serial", "Parallel", "G1", "Shenandoah", "ZGC")):
        for j, multiple in enumerate((1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)):
            runs = []
            for _ in range(counts[(i + j) % len(counts)]):
                wall = rng.uniform(1.0, 3.0)
                task = rng.uniform(1.0, 6.0)
                runs.append(costs(wall, task, stw=wall * rng.uniform(0, 0.3),
                                  gc_cpu=task * rng.uniform(0, 0.5)))
            table[(collector, multiple)] = runs
    return table


@pytest.mark.parametrize("invocations", [1, 2, 5, 10, (2, 5, 1)])
def test_curves_equal_the_per_point_loop_exactly(invocations):
    rng = np.random.default_rng(11)
    tables = [random_table(rng, invocations) for _ in range(3)]
    batched = [lbo_curves(f"b{i}", t) for i, t in enumerate(tables)]
    reference = [per_point_lbo_curves(f"b{i}", t) for i, t in enumerate(tables)]
    assert batched == reference
    for metric in ("wall", "task"):
        assert geomean_curves(batched, metric) == geomean_curves(reference, metric)
