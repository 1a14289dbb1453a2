"""Statistics: geometric mean, confidence intervals, percentiles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.stats import (
    LATENCY_PERCENTILES,
    confidence_interval_95,
    confidence_intervals_95,
    geometric_mean,
    percentile,
    percentile_ladder,
    t_critical_975,
)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geometric_mean([3.5]) == pytest.approx(3.5)

    def test_identity_on_constant(self):
        assert geometric_mean([1.3] * 22) == pytest.approx(1.3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=50))
    def test_between_min_and_max(self, values):
        g = geometric_mean(values)
        assert min(values) - 1e-9 <= g <= max(values) + 1e-9

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=20),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_homogeneous(self, values, k):
        # geomean(k * x) == k * geomean(x): the property that makes geomean
        # the right aggregate for normalized overheads.
        left = geometric_mean([k * v for v in values])
        assert left == pytest.approx(k * geometric_mean(values), rel=1e-9)


class TestConfidenceInterval:
    def test_exact_for_constant_samples(self):
        ci = confidence_interval_95([5.0, 5.0, 5.0, 5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0
        assert 5.0 in ci

    def test_single_sample_infinite(self):
        ci = confidence_interval_95([2.0])
        assert math.isinf(ci.half_width)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            confidence_interval_95([])

    def test_contains_true_mean_usually(self):
        rng = np.random.default_rng(7)
        hits = 0
        trials = 200
        for _ in range(trials):
            ci = confidence_interval_95(rng.normal(10.0, 1.0, size=10))
            if 10.0 in ci:
                hits += 1
        # 95% nominal coverage; allow generous slack for 200 trials.
        assert hits >= trials * 0.88

    def test_width_shrinks_with_samples(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1, 400)
        narrow = confidence_interval_95(data)
        wide = confidence_interval_95(data[:10])
        assert narrow.half_width < wide.half_width

    def test_low_high(self):
        ci = confidence_interval_95([1.0, 2.0, 3.0])
        assert ci.low == pytest.approx(ci.mean - ci.half_width)
        assert ci.high == pytest.approx(ci.mean + ci.half_width)


def per_row_ci(row):
    """The per-row formula the batched intervals must reproduce."""
    arr = np.asarray(row, dtype=float)
    mean = float(np.mean(arr))
    if arr.size == 1:
        return mean, math.inf
    sem = float(np.std(arr, ddof=1)) / math.sqrt(arr.size)
    return mean, t_critical_975(arr.size - 1) * sem


@st.composite
def mixed_rows(draw):
    """Rows of a few shared lengths in 1..32, interleaved."""
    lengths = draw(st.lists(st.integers(1, 32), min_size=1, max_size=4))
    value = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    rows = [
        draw(st.lists(value, min_size=n, max_size=n))
        for n in lengths
        for _ in range(draw(st.integers(1, 4)))
    ]
    return draw(st.permutations(rows))


class TestConfidenceIntervals:
    @given(mixed_rows())
    def test_bit_identical_to_per_row_formula(self, rows):
        cis = confidence_intervals_95(rows)
        assert len(cis) == len(rows)
        for row, ci in zip(rows, cis):
            mean, half_width = per_row_ci(row)
            assert ci.n == len(row)
            assert ci.mean.hex() == mean.hex()
            assert ci.half_width.hex() == half_width.hex()

    def test_single_sample_rows_are_infinite(self):
        cis = confidence_intervals_95([[2.0], [1.0, 3.0], [4.0]])
        assert [ci.n for ci in cis] == [1, 2, 1]
        assert math.isinf(cis[0].half_width) and math.isinf(cis[2].half_width)
        assert math.isfinite(cis[1].half_width)

    def test_rejects_an_empty_row(self):
        with pytest.raises(ValueError):
            confidence_intervals_95([[1.0, 2.0], []])

    def test_no_rows(self):
        assert confidence_intervals_95([]) == []

    def test_one_row_case_is_the_scalar_function(self):
        row = [1.25, 1.5, 1.0625, 1.75, 1.3]
        assert confidence_intervals_95([row]) == [confidence_interval_95(row)]


class TestTCritical:
    def test_df1(self):
        assert t_critical_975(1) == pytest.approx(12.706)

    def test_df9_matches_paper_invocations(self):
        # 10 invocations -> 9 degrees of freedom.
        assert t_critical_975(9) == pytest.approx(2.262)

    def test_large_df_normal(self):
        assert t_critical_975(1000) == pytest.approx(1.96)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            t_critical_975(0)

    def test_monotone_decreasing(self):
        values = [t_critical_975(df) for df in range(1, 40)]
        assert values == sorted(values, reverse=True)


class TestPercentiles:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([1], -1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_ladder_keys(self):
        ladder = percentile_ladder(np.arange(10000))
        assert set(ladder) == set(LATENCY_PERCENTILES)

    def test_ladder_monotone(self):
        ladder = percentile_ladder(np.random.default_rng(0).exponential(size=10000))
        values = [ladder[q] for q in sorted(ladder)]
        assert values == sorted(values)

    def test_paper_percentile_range(self):
        # The latency figures run from the median out to 99.9999.
        assert LATENCY_PERCENTILES[0] == 50.0
        assert LATENCY_PERCENTILES[-1] == 99.9999
