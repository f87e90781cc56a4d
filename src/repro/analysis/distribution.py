"""Cumulative Prefix+AS event distributions (Figure 7).

Figure 7 plots, per category and per day, the cumulative proportion of
events contributed by Prefix+AS pairs with at most ``k`` events.  Key
readings: 80–100% of daily instability comes from pairs announced
fewer than fifty times; WADiff "climbs to a plateau of about 95%
faster than the other three categories"; rare dominator days (Aug 11)
pull a curve far down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.columns import RecordColumns
from ..core.instability import (
    counts_by_prefix_as_columns,
    counts_by_prefix_columns,
)
from ..core.taxonomy import UpdateCategory

__all__ = [
    "DailyCdf",
    "daily_cdf",
    "mass_below",
    "monthly_cdfs",
    "dominated_days",
]


@dataclass
class DailyCdf:
    """One day's cumulative distribution for one category.

    ``thresholds[i]`` is an event count ``k``; ``cumulative[i]`` the
    proportion of the day's events from pairs with ≤ k events.
    """

    day: int
    category: UpdateCategory
    thresholds: List[int]
    cumulative: List[float]
    total_events: int
    max_pair_events: int

    def mass_at_or_below(self, k: int) -> float:
        """Event mass from pairs with at most ``k`` events."""
        result = 0.0
        for threshold, cum in zip(self.thresholds, self.cumulative):
            if threshold <= k:
                result = cum
            else:
                break
        return result


def daily_cdf(
    columns: RecordColumns,
    codes: np.ndarray,
    category: UpdateCategory,
    day: int = 0,
    by_prefix_only: bool = False,
) -> Optional[DailyCdf]:
    """Build one Figure 7 curve from a classified batch; None if the
    day has no such events.

    ``by_prefix_only`` collapses the AS dimension — the aggregation
    the paper says "generated results similar ... and have been
    omitted".
    """
    grouped = (
        counts_by_prefix_columns
        if by_prefix_only
        else counts_by_prefix_as_columns
    )
    per_pair = grouped(columns, codes, category)
    if not per_pair:
        return None
    counts = sorted(per_pair.values())
    total = sum(counts)
    thresholds: List[int] = []
    cumulative: List[float] = []
    running = 0
    previous = None
    for count in counts:
        running += count
        if count != previous:
            thresholds.append(count)
            cumulative.append(running / total)
            previous = count
        else:
            cumulative[-1] = running / total
    return DailyCdf(
        day=day,
        category=category,
        thresholds=thresholds,
        cumulative=cumulative,
        total_events=total,
        max_pair_events=counts[-1],
    )


def monthly_cdfs(
    daily_updates: Dict[int, Tuple[RecordColumns, np.ndarray]],
    category: UpdateCategory,
) -> List[DailyCdf]:
    """One curve per day of the month (Figure 7's line bundles);
    ``daily_updates`` maps day → ``(columns, codes)``."""
    curves = []
    for day, (columns, codes) in sorted(daily_updates.items()):
        curve = daily_cdf(columns, codes, category, day)
        if curve is not None:
            curves.append(curve)
    return curves


def mass_below(curves: Sequence[DailyCdf], k: int) -> List[float]:
    """Per-day event mass from pairs with ≤ k events (e.g. the
    "<50 announcements" reading)."""
    return [curve.mass_at_or_below(k) for curve in curves]


def dominated_days(
    curves: Sequence[DailyCdf],
    k: int = 200,
    heavy_mass: float = 0.05,
) -> List[int]:
    """Days where pairs with > k events carry over ``heavy_mass`` of
    the total — the AADup/WADup "5% to 10% ... 200 times or more"
    observation and the Aug-11-style dominator days."""
    result = []
    for curve in curves:
        if 1.0 - curve.mass_at_or_below(k) > heavy_mass:
            result.append(curve.day)
    return result
