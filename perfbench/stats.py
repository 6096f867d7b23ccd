"""Summary statistics and span arithmetic used by the benchmark report."""

from __future__ import annotations

import math

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values) -> float:
    """Middle value, or the mean of the two middle values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    if len(xs) % 2:
        return float(xs[mid])
    return (xs[mid - 1] + xs[mid]) / 2.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct % of
    the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 < pct <= 100.0:
        raise ValueError("percentile must lie in (0, 100]")
    rank = math.ceil(pct / 100.0 * len(xs) - 1e-9)
    return float(xs[max(rank, 1) - 1])


def tail(values) -> tuple[str, float]:
    """The highest ladder percentile that leaves at least ten samples beyond
    it, as (label, value). With fewer than twenty samples no percentile
    qualifies and the maximum is reported as "max"."""
    n = len(values)
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct / 100.0 * n - 1e-9)
        if beyond >= MIN_BEYOND:
            return f"p{pct:g}", percentile(values, pct)
    return "max", float(max(values))


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    ``spans`` are (id, parent_id, start, end) tuples; a parent of None marks
    a root span.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _, start, end in spans
    }
