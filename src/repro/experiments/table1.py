"""Table 1: per-ISP update totals for one day at AADS.

The paper's table shows, for ten providers on February 1 1997, the
day's announcements, withdrawals, and unique prefixes — with most
providers withdrawing an order of magnitude more than they announce,
and one (ISP-I) announcing 259 prefixes while transmitting 2.48 M
withdrawals for 14 112 distinct prefixes.

The mechanism behind withdrawal-dominance is §4.2's stateless BGP: a
provider's border router carries every exchange route in its table but
*exports* only its own customer routes (the standard no-transit
exchange policy).  When any other provider's route flaps, the topology
change makes a stateless router send a withdrawal to **all** peers —
including the route server, which never received an announcement for
that prefix.  Withdrawals therefore scale with *everyone's* flaps
while announcements scale only with the provider's own.

The experiment measures exactly that on the ``stateless_exchange``
scenario: a full-mesh simulated AADS where ten providers with
heterogeneous behaviour (stateless vs stateful, different customer
flap rates, one badly misconfigured ISP-I analogue) peer with each
other and a logging route server.  Absolute volumes are scaled (hours
instead of a day, tens of prefixes instead of 42 k); the structure is
the reproduction target.
"""

from __future__ import annotations

from ..collector.log import CountingLog
from ..core.report import ExperimentResult, Table
from ..sim.engine import Engine
from ..sim.studies import BASE_ASN, PROVIDER_SPECS, stateless_exchange

__all__ = ["run", "PROVIDER_SPECS"]


def run(
    duration: float = 3 * 3600.0,
    prefixes_per_provider: int = 40,
    seed: int = 7,
) -> ExperimentResult:
    """Run the Table 1 experiment; see module docstring."""
    world = stateless_exchange(
        Engine, seed=seed, duration=duration,
        prefixes_per_provider=prefixes_per_provider,
    )
    counting = CountingLog()
    counting.extend(world.sink)
    table = Table(
        "Table 1 — per-ISP update totals (simulated AADS day, scaled)",
        ["Provider", "Announce", "Withdraw", "Unique"],
    )
    rows = {}
    for index, name in enumerate(PROVIDER_SPECS):
        row = counting.row(BASE_ASN + index)
        rows[name] = row
        table.add_row(name, row["announce"], row["withdraw"], row["unique"])

    result = ExperimentResult(
        "table1",
        "Per-ISP announce/withdraw/unique totals for one day at AADS",
    )
    result.tables.append(table)
    bad_row = rows["Provider I"]
    stateless_rows = [
        rows[name]
        for name, spec in PROVIDER_SPECS.items()
        if spec.get("stateless") and not spec.get("bad")
    ]
    stateful_rows = [
        rows[name]
        for name, spec in PROVIDER_SPECS.items()
        if not spec.get("stateless")
    ]
    result.record(
        "isp_i_withdraw_to_announce_ratio",
        bad_row["withdraw"] / max(1, bad_row["announce"]),
        expect=(100.0, float("inf")),
    )
    result.record(
        "isp_i_withdrawals_dominate_day",
        bad_row["withdraw"] / max(1, counting.total),
        expect=(0.5, 1.0),
    )
    over_withdrawers = sum(
        1 for row in stateless_rows if row["withdraw"] > 3 * row["announce"]
    )
    result.record(
        "stateless_providers_withdraw_heavy",
        over_withdrawers,
        expect=(len(stateless_rows) - 1, len(stateless_rows)),
    )
    balanced_stateful = sum(
        1
        for row in stateful_rows
        if row["withdraw"] <= 3 * max(1, row["announce"])
    )
    result.record(
        "stateful_providers_balanced",
        balanced_stateful,
        expect=(len(stateful_rows) - 1, len(stateful_rows)),
    )
    result.notes.append(
        "Volumes are scaled (3 simulated hours, 40 prefixes/provider); "
        "paper's ISP-I: 259 announced / 2,479,023 withdrawn / 14,112 unique."
    )
    return result
