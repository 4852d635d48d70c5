"""Order statistics shared by the runner, the series tool and the diff."""

from __future__ import annotations

import statistics


def summary(values) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and sample count.

    With this benchmark's pass counts the highest percentile that keeps ten
    samples beyond it is the median, so quartiles and ``n`` stand beside it.
    """
    v = sorted(float(x) for x in values)
    if not v:
        raise ValueError("no samples")
    med = statistics.median(v)
    q1, q3 = (statistics.quantiles(v, n=4)[::2]) if len(v) >= 2 else (med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(v)}


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else float("inf")
