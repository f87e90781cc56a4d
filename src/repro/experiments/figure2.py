"""Figure 2: breakdown of routing updates by taxonomy category.

Figure 2 stacks daily Mae-East update counts by category from April
through September 1996, *excluding WWDup* "so as not to obscure the
salient features of the other data".  The reading: "both the AADup and
WADup classifications consistently dominate other categories of
routing instability."

The reproduction plans the seven-month campaign with the statistical
generator and reports monthly per-category totals (the aggregate tier
— no records materialized), then checks the dominance ordering.
"""

from __future__ import annotations

from typing import Dict

from ..core.report import ExperimentResult, Series, Table
from ..core.taxonomy import UpdateCategory
from ..workloads.generator import TraceGenerator

__all__ = ["run", "CAMPAIGN_DAYS", "MONTH_NAMES"]

#: Campaign day ranges per displayed month (March 1 epoch; Figure 2
#: shows April..September).
MONTHS: Dict[str, range] = {
    "April": range(31, 61),
    "May": range(61, 92),
    "June": range(92, 122),
    "July": range(122, 153),
    "August": range(153, 184),
    "September": range(184, 214),
}
MONTH_NAMES = tuple(MONTHS)
CAMPAIGN_DAYS = range(31, 214)

#: Figure 2's categories (WWDup excluded).
_CATEGORIES = (
    UpdateCategory.AADIFF,
    UpdateCategory.WADIFF,
    UpdateCategory.WADUP,
    UpdateCategory.AADUP,
)


def run(seed: int = 3) -> ExperimentResult:
    generator = TraceGenerator(seed=seed)
    monthly: Dict[str, Dict[UpdateCategory, int]] = {}
    for month, days in MONTHS.items():
        totals = {c: 0 for c in _CATEGORIES}
        for day in days:
            plan = generator.plan_day(day)
            for category in _CATEGORIES:
                totals[category] += plan.category_total(category)
        monthly[month] = totals

    table = Table(
        "Figure 2 — monthly update totals by category (WWDup excluded)",
        ["Month"] + [c.label for c in _CATEGORIES],
    )
    for month, totals in monthly.items():
        table.add_row(month, *(totals[c] for c in _CATEGORIES))

    result = ExperimentResult(
        "figure2",
        "Breakdown of Mae-East routing updates, April-September",
    )
    result.tables.append(table)
    for category in _CATEGORIES:
        series = Series(category.label)
        for i, month in enumerate(MONTHS):
            series.add(i, monthly[month][category])
        result.series.append(series)

    campaign_totals = {
        c: sum(monthly[m][c] for m in MONTHS) for c in _CATEGORIES
    }
    duplicates = (
        campaign_totals[UpdateCategory.AADUP]
        + campaign_totals[UpdateCategory.WADUP]
    )
    differents = (
        campaign_totals[UpdateCategory.AADIFF]
        + campaign_totals[UpdateCategory.WADIFF]
    )
    result.record(
        "dup_to_diff_ratio", duplicates / max(1, differents),
        expect=(1.5, 10.0),
    )
    # AADup and WADup dominate *consistently*: every month.
    months_dominated = sum(
        1
        for m in MONTHS
        if monthly[m][UpdateCategory.AADUP] > monthly[m][UpdateCategory.AADIFF]
        and monthly[m][UpdateCategory.WADUP] > monthly[m][UpdateCategory.WADIFF]
    )
    result.record(
        "months_with_duplicate_dominance",
        months_dominated,
        expect=(len(MONTHS) - 1, len(MONTHS)),
    )
    # The linear growth trend shows up month over month.
    april = sum(monthly["April"].values())
    september = sum(monthly["September"].values())
    result.record(
        "september_to_april_growth", september / max(1, april),
        expect=(1.2, 4.0),
    )
    return result
