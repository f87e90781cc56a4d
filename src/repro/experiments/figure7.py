"""Figure 7: cumulative distribution of Prefix+AS updates.

One CDF line per August day per category: the share of the day's
events contributed by Prefix+AS pairs with at most k events.
Readings reproduced and checked:

- "from 80 to 100 percent of the daily instability is contributed by
  Prefix+AS pairs announced less than fifty times";
- AADiff: "from 20 to 90 percent (median ≈75%) of the AADiff events
  are contributed by routes that changed ten times or less";
- WADiff plateaus fastest (highest median mass at small k);
- AADup/WADup have days where ≥5% of events come from pairs with
  200+ events, while WADiff essentially never does;
- rare dominator days (Aug 11: seven routes with 630-650 AADiffs).
"""

from __future__ import annotations

import numpy as np

from ..analysis.distribution import dominated_days, mass_below, monthly_cdfs
from ..core.report import ExperimentResult, Series, Table
from ..core.taxonomy import UpdateCategory
from ..workloads.generator import GeneratorTargets
from .figure6 import AUGUST, classified_month_columns, fine_grained_generator

__all__ = ["run"]


def run(seed: int = 4) -> ExperimentResult:
    # Guarantee at least one dominator day in the month (the paper's
    # Aug 11) by raising the probability slightly.
    targets = GeneratorTargets(dominator_day_probability=0.12)
    generator = fine_grained_generator(seed, targets=targets)
    daily = classified_month_columns(generator, AUGUST)

    result = ExperimentResult(
        "figure7", "Cumulative Prefix+AS update distributions (August)"
    )
    table = Table(
        "Figure 7 — per-category daily CDF summaries",
        [
            "Category",
            "median mass <=10",
            "median mass <=50",
            "days with heavy pairs (>200 events, >5% mass)",
        ],
    )
    curves_by_category = {}
    for category in (
        UpdateCategory.AADIFF,
        UpdateCategory.WADIFF,
        UpdateCategory.AADUP,
        UpdateCategory.WADUP,
    ):
        curves = monthly_cdfs(daily, category)
        curves_by_category[category] = curves
        mass10 = mass_below(curves, 10)
        mass50 = mass_below(curves, 50)
        heavy = dominated_days(curves, k=200, heavy_mass=0.05)
        table.add_row(
            category.label,
            round(float(np.median(mass10)), 3),
            round(float(np.median(mass50)), 3),
            len(heavy),
        )
        series = Series(f"{category.label}: daily mass from pairs <=50 events")
        for curve, mass in zip(curves, mass50):
            series.add(curve.day, round(mass, 3))
        result.series.append(series)
    result.tables.append(table)

    instability_curves = (
        curves_by_category[UpdateCategory.AADIFF]
        + curves_by_category[UpdateCategory.WADIFF]
        + curves_by_category[UpdateCategory.WADUP]
    )
    inst_mass50 = mass_below(instability_curves, 50)
    result.record(
        "instability_mass_below_50_median",
        float(np.median(inst_mass50)),
        expect=(0.8, 1.0),
    )
    aadiff_mass10 = mass_below(
        curves_by_category[UpdateCategory.AADIFF], 10
    )
    result.record(
        "aadiff_mass_below_10_median",
        float(np.median(aadiff_mass10)),
        expect=(0.55, 0.95),
    )
    result.record(
        "aadiff_mass_below_10_min",
        float(np.min(aadiff_mass10)),
        expect=(0.0, 0.6),  # dominator days pull a curve far down
    )
    # WADiff plateaus fastest.
    medians = {
        category: float(np.median(mass_below(curves, 10)))
        for category, curves in curves_by_category.items()
    }
    result.record(
        "wadiff_plateaus_fastest",
        int(
            medians[UpdateCategory.WADIFF]
            >= max(
                medians[UpdateCategory.AADUP],
                medians[UpdateCategory.WADUP],
            )
        ),
        expect=(1, 1),
    )
    heavy_dup_days = len(
        dominated_days(
            curves_by_category[UpdateCategory.AADUP], k=200, heavy_mass=0.05
        )
    )
    heavy_wadiff_days = len(
        dominated_days(
            curves_by_category[UpdateCategory.WADIFF], k=100, heavy_mass=0.05
        )
    )
    result.record("aadup_heavy_days", heavy_dup_days, expect=(1, 31))
    result.record("wadiff_heavy_days", heavy_wadiff_days, expect=(0, 2))

    # The paper's omitted variant: "instability aggregated on prefix
    # alone generated results similar to those shown."  Verify the
    # similarity instead of assuming it.
    from ..analysis.distribution import daily_cdf

    prefix_only_mass = []
    for day, (columns, codes) in sorted(daily.items()):
        curve = daily_cdf(
            columns, codes, UpdateCategory.AADIFF, day, by_prefix_only=True
        )
        if curve is not None:
            prefix_only_mass.append(curve.mass_at_or_below(10))
    pair_median = float(np.median(aadiff_mass10))
    prefix_median = float(np.median(prefix_only_mass))
    result.record(
        "prefix_only_aggregation_similarity",
        abs(pair_median - prefix_median),
        expect=(0.0, 0.2),
    )
    return result
