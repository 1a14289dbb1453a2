"""Summary statistics used by the harness and the analysis pipeline.

Implements the statistical machinery Recommendation P1 calls for: geometric
means over benchmark suites, 95 % confidence intervals over invocations, and
percentile helpers for latency distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

# Two-sided 97.5 % t quantiles for small sample sizes (df 1..30); beyond 30
# degrees of freedom the normal approximation is used.  Keeping the table
# inline avoids a hard scipy dependency in the core library.
_T_975 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t_critical_975(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if df <= len(_T_975):
        return _T_975[df - 1]
    return 1.96


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    The paper reports suite-wide overheads as geometric means over the 22
    benchmarks (Figure 1).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric 95 % confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high


def confidence_interval_95(samples: Sequence[float]) -> ConfidenceInterval:
    """95 % confidence interval of the mean of ``samples``.

    The paper runs 10 invocations of each benchmark and plots 95 %
    confidence intervals (Section 6.1.2); this is the same computation.
    """
    return confidence_intervals_95([samples])[0]


def confidence_intervals_95(rows: Sequence[Sequence[float]]) -> List[ConfidenceInterval]:
    """:func:`confidence_interval_95` of each row, in order.

    Rows of one length share one row-wise ``mean``/``std`` pass, whose
    reductions match per-row calls bit for bit; a sweep's cost table
    has one length per invocation count, so this is one pass per
    benchmark instead of two numpy calls per (collector, heap) point.
    """
    by_length: Dict[int, List[int]] = {}
    for index, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(index)
    if 0 in by_length:
        raise ValueError("confidence interval of empty sequence")
    out: List[Optional[ConfidenceInterval]] = [None] * len(rows)
    for n, indices in by_length.items():
        arr = np.array([rows[i] for i in indices], dtype=float)
        means = np.mean(arr, axis=1).tolist()
        if n == 1:
            for i, mean in zip(indices, means):
                out[i] = ConfidenceInterval(mean=mean, half_width=math.inf, n=1)
            continue
        t = t_critical_975(n - 1)
        root_n = math.sqrt(n)
        stds = np.std(arr, axis=1, ddof=1).tolist()
        for i, mean, std in zip(indices, means, stds):
            out[i] = ConfidenceInterval(mean=mean, half_width=t * (std / root_n), n=n)
    return out  # type: ignore[return-value]


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile with linear interpolation; ``q`` in [0, 100]."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(arr, q))


# The percentile ladder used in the paper's latency figures, from the median
# out to the 99.9999th percentile.
LATENCY_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999)


def percentile_ladder(values: Sequence[float], percentiles: Sequence[float] = LATENCY_PERCENTILES) -> dict:
    """Map each percentile in ``percentiles`` to its value in ``values``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile ladder of empty sequence")
    return {q: float(np.percentile(arr, q)) for q in percentiles}
