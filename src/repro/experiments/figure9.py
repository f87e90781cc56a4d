"""Figure 9: proportion of routes affected by updates each day.

Figure 9 plots the per-day fraction of Prefix+AS tuples involved in
each update category, April–September, keeping only days with ≥80%
collection coverage.  Readings checked:

- 3–10% of routes see ≥1 WADiff; 5–20% see ≥1 AADiff per day;
- 35–100% (median ~50%) are involved in at least one category;
- hence "most (80 percent) of Internet routes exhibit a relatively
  high level of stability" on the instability measures.

Affected fractions depend only on *which pairs had events*, so this
runs on the generator's unscaled day plans directly — the whole
campaign, no record materialization.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..analysis.affected import DayAffected, affected_series_stats
from ..core.report import ExperimentResult, Series, Table
from ..core.taxonomy import INSTABILITY_CATEGORIES
from ..workloads.generator import TraceGenerator
from ..workloads.incidents import default_campaign_schedule

__all__ = ["run", "CAMPAIGN"]

CAMPAIGN = range(31, 214)  # April..September


def run(seed: int = 3) -> ExperimentResult:
    schedule = default_campaign_schedule(seed=seed)
    generator = TraceGenerator(schedule=schedule, seed=seed)
    total_pairs = generator.population.total_pairs
    days: List[DayAffected] = []
    instability_affected: List[float] = []
    for day in CAMPAIGN:
        plan = generator.plan_day(day)
        fractions = {
            category: len(plan.affected_pairs(category)) / total_pairs
            for category in plan.participation
        }
        days.append(
            DayAffected(
                day=day,
                fractions=fractions,
                any_fraction=len(plan.affected_pairs_any()) / total_pairs,
                coverage=schedule.coverage(day),
            )
        )
        pairs = set()
        for category in INSTABILITY_CATEGORIES:
            pairs |= plan.affected_pairs(category)
        instability_affected.append(len(pairs) / total_pairs)
    stats = affected_series_stats(days, min_coverage=0.8)

    result = ExperimentResult(
        "figure9", "Proportion of routes affected by updates per day"
    )
    table = Table(
        "Figure 9 — affected-route fraction ranges (well-covered days)",
        ["Measure", "min", "max", "paper"],
    )
    table.add_row(
        "WADiff >= 1/day",
        round(stats.wadiff_range[0], 3),
        round(stats.wadiff_range[1], 3),
        "0.03-0.10",
    )
    table.add_row(
        "AADiff >= 1/day",
        round(stats.aadiff_range[0], 3),
        round(stats.aadiff_range[1], 3),
        "0.05-0.20",
    )
    table.add_row(
        "any category",
        round(stats.any_range[0], 3),
        round(stats.any_range[1], 3),
        "0.35-1.00 (median 0.50)",
    )
    result.tables.append(table)

    series = Series("any-category affected fraction by day")
    for day_stats in days[::7]:
        series.add(day_stats.day, round(day_stats.any_fraction, 3))
    result.series.append(series)

    result.record(
        "wadiff_fraction_low", stats.wadiff_range[0], expect=(0.01, 0.05)
    )
    result.record(
        "wadiff_fraction_high", stats.wadiff_range[1], expect=(0.06, 0.15)
    )
    result.record(
        "aadiff_fraction_low", stats.aadiff_range[0], expect=(0.02, 0.08)
    )
    result.record(
        "aadiff_fraction_high", stats.aadiff_range[1], expect=(0.12, 0.30)
    )
    result.record(
        "any_fraction_median", stats.any_median, expect=(0.35, 0.65)
    )
    result.record(
        "any_fraction_max", stats.any_range[1], expect=(0.55, 1.0)
    )
    # Stability on the forwarding-instability measures: the
    # instability-only affected fraction leaves >80% of routes quiet.
    result.record(
        "stable_route_fraction",
        1.0 - float(np.median(instability_affected)),
        expect=(0.72, 0.95),
    )
    result.record("well_covered_days", stats.n_days, expect=(120, 183))
    return result
