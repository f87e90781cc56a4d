"""Figure 10: multi-homed prefixes, April through December.

Figure 10 counts prefixes advertised with multiple paths in Mae-East's
routing tables over nine months: ~linear growth ("the rate of increase
in multi-homing is at best linear"), >25% of prefixes multi-homed,
spikes at the late-May ISP infrastructure upgrade, and a gap of lost
data.

Two-part reproduction:

1. The growth-model series with all four features, summarized and
   checked.
2. A mechanism demo: the multi-homed count measured directly from the
   route server's RIB of the ``core_exchange`` scenario, built on a
   generated AS topology, against the topology's ground truth.
"""

from __future__ import annotations

from ..analysis.multihoming import count_multihomed, series_summary
from ..core.report import ExperimentResult, Series, Table
from ..sim.engine import Engine
from ..sim.studies import core_exchange
from ..topology.multihoming import MultihomingGrowthModel

__all__ = ["run"]


def run(seed: int = 3) -> ExperimentResult:
    model = MultihomingGrowthModel(seed=seed)
    series = model.series(n_days=270)
    summary = series_summary(series)

    result = ExperimentResult(
        "figure10", "Multi-homed prefix count, April-December"
    )
    rendered = Series("multi-homed prefixes by day (weekly samples)")
    for day, count in series.observed()[::7]:
        rendered.add(day, count)
    result.series.append(rendered)

    table = Table(
        "Figure 10 — summary", ["quantity", "value", "paper"]
    )
    table.add_row("start count", summary.start_count, "~9-10k (April)")
    table.add_row("end count", summary.end_count, "~20-25k (December)")
    table.add_row(
        "growth/day", round(summary.growth_per_day, 1), "linear (~50/day)"
    )
    table.add_row("peak day", summary.peak_day, "late May (upgrade)")
    table.add_row(
        "final fraction", round(summary.final_fraction, 3), ">0.25"
    )
    result.tables.append(table)

    result.record(
        "growth_per_day", summary.growth_per_day, expect=(30.0, 90.0)
    )
    result.record(
        "grew_linearly", int(summary.grew_linearly), expect=(1, 1)
    )
    result.record(
        "final_multi_homed_fraction",
        summary.final_fraction,
        expect=(0.25, 0.8),
    )
    result.record(
        "upgrade_spike_magnitude",
        summary.peak_count
        / max(1, model.count_on(summary.peak_day + 10) or 1),
        expect=(1.5, 5.0),
    )
    result.record("has_data_gap", int(summary.has_gap), expect=(1, 1))

    world = core_exchange(Engine, seed=seed + 8)
    measured = count_multihomed(world.routers["route server"].loc_rib)
    truth = world.readings["multi_homed_truth"]
    result.record("rib_measured_multihomed", measured, expect=truth)
    result.notes.append(
        "RIB measurement cross-check: the multi-homed count taken from "
        "a live simulated route-server RIB matches the topology's "
        f"ground truth ({measured} vs {truth})."
    )
    return result
