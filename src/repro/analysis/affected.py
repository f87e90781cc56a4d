"""Proportion of routes affected by updates per day (Figure 9).

Figure 9 plots, per day, the fraction of Prefix+AS tuples touched by
each category of routing update.  The paper's readings:

- 3–10% of routes see ≥1 WADiff per day;
- 5–20% see ≥1 AADiff per day;
- 35–100% (median 50%) are involved in at least one category;
- hence most (~80%) of routes are stable on a typical day;
- only days with ≥80% collection coverage are shown.

The experiment reads *which pairs had events* off the generator's day
plan; this module holds the per-day value and the campaign summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.taxonomy import UpdateCategory

__all__ = ["DayAffected", "affected_series_stats"]


@dataclass(frozen=True)
class DayAffected:
    """Per-day affected-route fractions."""

    day: int
    fractions: Dict[UpdateCategory, float]
    any_fraction: float
    coverage: float = 1.0


@dataclass
class AffectedSeriesStats:
    """Summary over a campaign of :class:`DayAffected` values."""

    wadiff_range: Tuple[float, float]
    aadiff_range: Tuple[float, float]
    any_range: Tuple[float, float]
    any_median: float
    stable_median: float
    n_days: int


def affected_series_stats(
    days: Sequence[DayAffected],
    min_coverage: float = 0.8,
) -> AffectedSeriesStats:
    """Figure 9's summary, filtered to well-covered days (paper: "Days
    shown have at least 80 percent of the date's data collected")."""
    kept = [d for d in days if d.coverage >= min_coverage]
    if not kept:
        raise ValueError("no days meet the coverage requirement")

    def range_of(category: UpdateCategory) -> Tuple[float, float]:
        values = [d.fractions.get(category, 0.0) for d in kept]
        return (min(values), max(values))

    any_values = sorted(d.any_fraction for d in kept)
    return AffectedSeriesStats(
        wadiff_range=range_of(UpdateCategory.WADIFF),
        aadiff_range=range_of(UpdateCategory.AADIFF),
        any_range=(any_values[0], any_values[-1]),
        any_median=float(np.median(any_values)),
        stable_median=1.0 - float(np.median(any_values)),
        n_days=len(kept),
    )
