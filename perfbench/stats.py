"""Order statistics with the ten-samples-beyond rule.

A tail percentile is only reported when at least ten samples lie beyond it;
with fewer, one unlucky sample decides the figure, so :func:`percentile`
refuses instead of returning a number that would not repeat.
"""

from __future__ import annotations

import math
import re

import numpy as np

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Every metric name the benchmark prints must match this.
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples lie above the ``q`` quantile."""
    return count - math.ceil(q * count - 1e-9)


def min_samples(q: float) -> int:
    """The smallest sample count for which quantile ``q`` may be reported."""
    if q <= 0.5:
        return 1
    count = MIN_BEYOND
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


def percentile(values, q: float) -> float:
    """The ``q`` quantile (``0 < q < 1``) of ``values``.

    The median (``q == 0.5``) of any non-empty sample is allowed; a higher
    quantile raises :class:`ValueError` unless at least :data:`MIN_BEYOND`
    samples lie beyond it.
    """
    values = np.asarray(values, dtype=np.float64)
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if values.size == 0:
        raise ValueError("no samples")
    if q > 0.5 and samples_beyond(values.size, q) < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {values.size} samples has "
            f"{samples_beyond(values.size, q)} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(q)} samples)")
    return float(np.quantile(values, q))


def median(values) -> float:
    return percentile(values, 0.5)


def check_metric_names(metrics: dict) -> None:
    """Raise if a metric name falls outside :data:`METRIC_NAME`."""
    bad = [name for name in metrics if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
