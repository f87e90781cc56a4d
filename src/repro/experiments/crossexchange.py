"""Cross-exchange consistency (the §5 representativeness claim).

"It is important to note that these results are representative of
other exchange points, including PacBell and Sprint.  The BGP
information exported from autonomous systems at private exchange
points should mirror the data at public exchanges."

The experiment runs the ``cross_exchange_day`` scenario once: three
instrumented exchanges, providers attending several of them, one
customer-flap process per provider that every exchange it attends
sees (a flapping customer circuit is withdrawn by the provider
*everywhere it peers*).  Each exchange's route-server log is
classified independently from the end of the settle on; the
per-category share profiles should agree across exchanges even though
absolute volumes differ with peer count.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..core.columns import RecordColumns, classify_columns
from ..core.instability import CategoryCounts
from ..core.report import ExperimentResult, Table
from ..sim.engine import Engine
from ..sim.scenarios import _run_day, day_scenario_config

__all__ = [
    "exchange_counts",
    "min_pairwise_similarity",
    "profile_similarity",
    "run",
]


def exchange_counts(partitions) -> Dict[str, CategoryCounts]:
    """The taxonomy breakdown of each partition's route-server log,
    counting only what it logged once the day had settled."""
    counts: Dict[str, CategoryCounts] = {}
    for partition in partitions:
        settle = partition.config.settle
        records = [r for r in partition.sink.records if r.time >= settle]
        columns = RecordColumns.from_records(records)
        counts[partition.exchange.name] = CategoryCounts.from_codes(
            *classify_columns(columns)
        )
    return counts


def _profile(counts: CategoryCounts) -> Dict[str, float]:
    total = max(1, counts.total)
    return {
        category: value / total
        for category, value in counts.as_dict().items()
    }


def profile_similarity(a: Dict[str, float], b: Dict[str, float]) -> float:
    """Cosine similarity between two category-share profiles."""
    keys = set(a) | set(b)
    dot = sum(a.get(k, 0.0) * b.get(k, 0.0) for k in keys)
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def min_pairwise_similarity(counts: Dict[str, CategoryCounts]) -> float:
    """The weakest cross-exchange agreement — the §5 claim holds when
    this stays high."""
    profiles: List[Dict[str, float]] = [
        _profile(c) for c in counts.values()
    ]
    worst = 1.0
    for i, a in enumerate(profiles):
        for b in profiles[i + 1:]:
            worst = min(worst, profile_similarity(a, b))
    return worst


def run(seed: int = 3) -> ExperimentResult:
    config = day_scenario_config("cross_exchange_day", seed=seed)
    _, partitions = _run_day(Engine, config)
    counts = exchange_counts(partitions)

    result = ExperimentResult(
        "crossexchange",
        "Cross-exchange consistency of instability statistics",
    )
    table = Table(
        "Per-exchange classification",
        ["Exchange", "updates", "instability share", "pathological share"],
    )
    for name, c in counts.items():
        total = max(1, c.total)
        table.add_row(
            name,
            c.total,
            round(c.instability / total, 3),
            round(c.pathological / total, 3),
        )
    result.tables.append(table)

    result.record(
        "min_profile_similarity",
        min_pairwise_similarity(counts),
        expect=(0.8, 1.0),
    )
    volumes = sorted(c.total for c in counts.values())
    result.record(
        "volume_spread",
        volumes[-1] / max(1, volumes[0]),
        expect=(1.0, 10.0),
    )
    all_saw_updates = all(c.total > 50 for c in counts.values())
    result.record(
        "all_exchanges_observed_instability",
        int(all_saw_updates),
        expect=(1, 1),
    )
    result.notes.append(
        "Volumes differ with each exchange's peer count; the category "
        "mix does not — the paper's justification for presenting only "
        "Mae-East."
    )
    result.notes.append(
        "The claim needs more than two providers at an exchange: with 6 "
        "providers instead of 9, seeds 1-10 give a minimum similarity of "
        "0.45 at seed 3 (one exchange holds only its two home providers "
        "and logs 107 updates) and 0.92-1.00 on the others; with 9 every "
        "seed gives 0.988-1.000 and every exchange at least 971 updates."
    )
    return result
