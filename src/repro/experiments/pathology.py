"""The §4 headline pathology numbers.

Not a single figure but the paper's most-quoted findings, each checked
against the reproduction:

- 3–6 million updates/day at the core vs a 42,000-prefix table
  ("one or more orders of magnitude larger than expected");
- 500k–6M pathological withdrawals (WWDup) per day at Mae-East;
- ~99% of routing information pathological;
- the stateless→stateful vendor fix cutting one provider's
  withdrawals by three orders of magnitude (2M → 1905);
- pathology persistence under five minutes;
- the 300-updates/second router crash experiment (§6).

The fix and the crash run the ``stateless_fix`` and ``update_crash``
scenarios.
"""

from __future__ import annotations

import numpy as np

from ..core.columns import classify_columns
from ..core.instability import CategoryCounts, persistence
from ..core.report import ExperimentResult, Table
from ..core.taxonomy import PATHOLOGICAL_CATEGORIES, UpdateCategory
from ..sim.engine import Engine
from ..sim.studies import stateless_fix, update_crash
from ..workloads.calibration import PAPER
from ..workloads.generator import TraceGenerator

__all__ = ["run"]


def run(seed: int = 3) -> ExperimentResult:
    generator = TraceGenerator(seed=seed)
    daily_totals = []
    wwdups = []
    path_fractions = []
    for day in range(120, 150):
        plan = generator.plan_day(day)
        total = sum(plan.category_total(c) for c in plan.participation)
        ww = plan.category_total(UpdateCategory.WWDUP)
        aadup = plan.category_total(UpdateCategory.AADUP)
        daily_totals.append(total)
        wwdups.append(ww)
        path_fractions.append((ww + aadup) / total)

    result = ExperimentResult(
        "pathology", "Headline pathology magnitudes (section 4)"
    )
    table = Table(
        "Pathology headline numbers",
        ["quantity", "measured", "paper"],
    )
    median_total = float(np.median(daily_totals))
    median_ww = float(np.median(wwdups))
    median_frac = float(np.median(path_fractions))
    table.add_row("median daily updates (Mae-East)", int(median_total),
                  "3-6M (core)")
    table.add_row("median daily WWDups", int(median_ww), "0.5-6M")
    table.add_row("pathological fraction", round(median_frac, 3), "~0.99")
    table.add_row(
        "updates per prefix per day",
        round(median_total / PAPER.total_prefixes, 1),
        "~125",
    )
    result.tables.append(table)

    result.record(
        "daily_updates_median",
        median_total,
        expect=(3_000_000, 6_000_000),
    )
    result.record(
        "daily_wwdup_median",
        median_ww,
        expect=PAPER.daily_wwdups,
    )
    result.record(
        "pathological_fraction", median_frac, expect=(0.9, 1.0)
    )
    result.record(
        "updates_per_prefix_per_day",
        median_total / PAPER.total_prefixes,
        expect=(70.0, 160.0),
    )

    # Stateless vs stateful vendor fix.
    arms = stateless_fix(Engine, seed=seed)
    stateless_w, stateful_w = (
        sum(1 for record in arms[stateless].sink if record.is_withdraw)
        for stateless in (True, False)
    )
    result.record(
        "stateless_to_stateful_ratio",
        stateless_w / max(1, stateful_w),
        expect=(10.0, float("inf")),
    )
    result.notes.append(
        f"stateless router leaked {stateless_w} withdrawals where the "
        f"stateful one sent {stateful_w} (paper: 2,000,000 vs 1,905 for "
        "the same provider through old and updated software)."
    )

    # Persistence of pathological behaviour (<5 minutes), plus the
    # policy-fluctuation share of AADups (updates whose forwarding
    # tuple is unchanged but whose MED/communities moved — §4.1's
    # "policy fluctuation" distinction).
    columns = generator.day_columns(130, pair_fraction=0.02)
    codes, policy = classify_columns(columns)
    counts = CategoryCounts.from_codes(codes, policy)
    aadups = counts[UpdateCategory.AADUP]
    if aadups:
        result.record(
            "policy_fluctuation_share_of_aadup",
            counts.policy_changes / aadups,
            expect=(0.1, 0.5),
        )
    pathological = np.isin(
        codes, sorted(c.value for c in PATHOLOGICAL_CATEGORIES)
    )
    episodes = persistence(columns.select(pathological))
    durations = [d for ds in episodes.values() for d in ds if d > 0]
    if durations:
        under_5min = sum(1 for d in durations if d < 300.0) / len(durations)
        result.record(
            "pathology_persistence_under_5min",
            under_5min,
            expect=(0.6, 1.0),
        )

    # The crash experiment.
    crash = update_crash(Engine)
    crashed_at_300 = crash[300.0].routers["victim"].crash_count > 0
    survived_at_30 = crash[30.0].routers["victim"].crash_count == 0
    result.record("crashes_at_300_per_sec", int(crashed_at_300), expect=(1, 1))
    result.record("survives_30_per_sec", int(survived_at_30), expect=(1, 1))

    # The record day: "on at least one occasion, the total number of
    # updates exchanged at the Internet core has exceeded 30 million
    # per day.  Our data collection infrastructure failed for the day
    # after recording 30 million updates in a six hour period."  A
    # catastrophic full-day incident on the calibrated model should
    # clear 30M — and the schedule machinery can mark the aftermath
    # as lost, exactly as happened.
    from ..workloads.incidents import Incident, IncidentSchedule

    record_schedule = IncidentSchedule(
        [Incident("meltdown", 100, 100, 12.0)]
    )
    record_schedule.mark_lost_day(101)
    record_generator = TraceGenerator(
        schedule=record_schedule, seed=seed
    )
    record_plan = record_generator.plan_day(100)
    record_total = sum(
        record_plan.category_total(c)
        for c in record_plan.participation
    )
    result.record(
        "record_day_updates",
        record_total,
        expect=(30_000_000, 80_000_000),
    )
    result.record(
        "collection_fails_after_record_day",
        record_schedule.coverage(101),
        expect=0.0,
    )
    return result
