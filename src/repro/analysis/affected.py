"""Proportion of routes affected by updates per day (Figure 9).

Figure 9 plots, per day, the fraction of Prefix+AS tuples touched by
each category of routing update.  The paper's readings:

- 3–10% of routes see ≥1 WADiff per day;
- 5–20% see ≥1 AADiff per day;
- 35–100% (median 50%) are involved in at least one category;
- hence most (~80%) of routes are stable on a typical day;
- only days with ≥80% collection coverage are shown.

The computation needs only *which pairs had events*: one sort/diff
pass over the batch per category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.instability import counts_by_prefix_as_columns
from ..core.taxonomy import UpdateCategory

__all__ = ["DayAffected", "affected_from_updates", "affected_series_stats"]


@dataclass(frozen=True)
class DayAffected:
    """Per-day affected-route fractions."""

    day: int
    fractions: Dict[UpdateCategory, float]
    any_fraction: float
    coverage: float = 1.0

    def stable_fraction(self) -> float:
        """Routes untouched by any update that day."""
        return 1.0 - self.any_fraction


def affected_from_updates(
    columns,
    codes: np.ndarray,
    total_pairs: int,
    day: int = 0,
    coverage: float = 1.0,
    categories: Sequence[UpdateCategory] = tuple(UpdateCategory),
) -> DayAffected:
    """Compute one day's affected fractions from a classified batch
    (``codes`` row-aligned with ``columns``)."""

    def fraction(category) -> float:
        if not total_pairs:
            return 0.0
        touched = counts_by_prefix_as_columns(columns, codes, category)
        return len(touched) / total_pairs

    return DayAffected(
        day=day,
        fractions={category: fraction(category) for category in categories},
        any_fraction=fraction(None),
        coverage=coverage,
    )


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
