"""Summary statistics used by the benchmark's metrics."""

from __future__ import annotations

import math
import statistics


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (a multiple of 10), interpolated between
    closest ranks as ``statistics.quantiles(method="inclusive")`` does."""
    if len(values) == 1:
        return float(values[0])
    if pct == 50:
        return float(statistics.median(values))
    return statistics.quantiles(values, n=10, method="inclusive")[pct // 10 - 1]


def loglog_slope(sizes, times) -> float:
    """Least-squares slope of log(time) against log(size): the growth
    exponent (1 for linear work, 2 for quadratic)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


def growth(per_round: list[dict[int, float]]) -> tuple[dict[int, float], float]:
    """Median over rounds of a per-size quantity, and its growth exponent
    over the sizes.  Sizes whose median is not positive are left out of
    the fit; with fewer than two left the exponent is 0."""
    sizes = sorted({n for r in per_round for n in r})
    med = {n: float(statistics.median(r[n] for r in per_round if n in r))
           for n in sizes}
    fit = [n for n in sizes if med[n] > 0]
    slope = loglog_slope(fit, [med[n] for n in fit]) if len(fit) >= 2 else 0.0
    return med, slope
