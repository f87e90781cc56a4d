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

The experiment builds exactly that: a full-mesh simulated AADS where
ten providers with heterogeneous behaviour (stateless vs stateful,
different customer flap rates, one badly misconfigured ISP-I analogue)
peer with each other and a logging route server.  Absolute volumes are
scaled (hours instead of a day, tens of prefixes instead of 42 k); the
structure is the reproduction target.
"""

from __future__ import annotations

import random
from typing import Dict

from ..bgp.policy import MatchCondition, PolicyTerm, RouteMap
from ..collector.log import CountingLog
from ..collector.record import MemoryLog
from ..core.report import ExperimentResult, Table
from ..net.prefix import Prefix
from ..sim.engine import Engine
from ..sim.faults import CustomerFlapGenerator, MisconfiguredProvider
from ..sim.router import Router
from ..sim.routeserver import ExchangePoint

__all__ = ["run", "simulate_exchange", "PROVIDER_SPECS"]

#: Provider behaviour mirroring Table 1's spread.  ``flaps`` is the
#: per-provider customer flap rate (per second); ``bad`` marks the
#: ISP-I analogue.
PROVIDER_SPECS = {
    "Provider A": dict(stateless=True, flaps=1 / 400.0),
    "Provider B": dict(stateless=True, flaps=1 / 600.0),
    "Provider C": dict(stateless=False, flaps=1 / 2000.0),
    "Provider D": dict(stateless=False, flaps=1 / 1000.0),
    "Provider E": dict(stateless=False, flaps=1 / 120.0),
    "Provider F": dict(stateless=True, flaps=1 / 900.0),
    "Provider G": dict(stateless=True, flaps=1 / 800.0),
    "Provider H": dict(stateless=True, flaps=1 / 60.0),
    "Provider I": dict(stateless=True, flaps=1 / 500.0, bad=True),
    "Provider J": dict(stateless=False, flaps=1 / 100.0),
}

#: Provider ``index`` (in ``PROVIDER_SPECS`` order) peers as AS
#: ``_BASE_ASN + index``; the report finds its rows by the same rule.
_BASE_ASN = 100


def _own_routes_only(own: list) -> RouteMap:
    """The no-transit exchange export policy: advertise own customer
    routes, deny everything else."""
    return RouteMap(
        [
            PolicyTerm(MatchCondition(prefixes=tuple(own))),
        ],
        name="own-routes-only",
    )


def simulate_exchange(
    duration: float, prefixes_per_provider: int, seed: int
) -> MemoryLog:
    """The Table 1 scenario (see module docstring): the updates the
    AADS route server logged over ``duration`` steady-state seconds."""
    engine = Engine()
    sink = MemoryLog()
    exchange = ExchangePoint(engine, name="AADS", sink=sink, full_mesh=True)
    rng = random.Random(seed)
    routers: Dict[str, Router] = {}
    generators = []
    base = 24 << 24
    prefix_index = 0
    all_prefixes = []
    own_prefixes: Dict[str, list] = {}
    for index, (name, spec) in enumerate(PROVIDER_SPECS.items()):
        own = []
        for _ in range(prefixes_per_provider):
            own.append(Prefix(base + prefix_index * 256, 24))
            prefix_index += 1
        own_prefixes[name] = own
        all_prefixes.extend(own)
        router = Router(
            engine,
            asn=_BASE_ASN + index,
            router_id=(10 << 24) + index + 1,
            stateless_bgp=spec.get("stateless", False),
            mrai_interval=30.0,
            mrai_jitter=0.0,
            export_policy=_own_routes_only(own),
            rng=random.Random(seed + index),
            name=name,
        )
        for prefix in own:
            router.originate(prefix)
        exchange.attach_provider(router)
        routers[name] = router
    engine.run_until(150.0)  # establish + table exchange
    sink.clear()             # measure steady state only

    for index, (name, spec) in enumerate(PROVIDER_SPECS.items()):
        router = routers[name]
        if spec.get("flaps"):
            flapper = CustomerFlapGenerator(
                engine,
                router,
                base_rate=spec["flaps"],
                outage_duration=4.0,
                rng=random.Random(seed * 31 + index),
            )
            flapper.start()
            generators.append(flapper)
        if spec.get("bad"):
            foreign = [
                p for p in all_prefixes if p not in set(router.originated)
            ]
            rng.shuffle(foreign)
            bad = MisconfiguredProvider(
                engine,
                router,
                foreign[: min(len(foreign), 300)],
                period=5.0,
                rng=random.Random(seed * 97 + index),
            )
            bad.start()
            generators.append(bad)
    engine.run_until(engine.now + duration)
    return sink


def run(
    duration: float = 3 * 3600.0,
    prefixes_per_provider: int = 40,
    seed: int = 7,
) -> ExperimentResult:
    """Run the Table 1 experiment; see module docstring."""
    counting = CountingLog()
    counting.extend(simulate_exchange(duration, prefixes_per_provider, seed))
    table = Table(
        "Table 1 — per-ISP update totals (simulated AADS day, scaled)",
        ["Provider", "Announce", "Withdraw", "Unique"],
    )
    rows = {}
    for index, name in enumerate(PROVIDER_SPECS):
        row = counting.row(_BASE_ASN + index)
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
