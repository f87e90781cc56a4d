"""Tests for topology generation, exchange points, and multi-homing."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.topology.asgraph import Tier, internet_topology
from repro.topology.exchange import EXCHANGE_POINTS, exchange_by_name
from repro.topology.multihoming import MultihomingGrowthModel
from repro.sim.engine import Engine
from repro.sim.router import Router
from repro.sim.routeserver import ExchangePoint


class TestExchangeInfo:
    def test_five_measured_exchanges(self):
        assert len(EXCHANGE_POINTS) == 5
        names = {e.name for e in EXCHANGE_POINTS}
        assert names == {"Mae-East", "AADS", "Sprint", "PacBell", "Mae-West"}

    def test_mae_east_is_largest(self):
        mae_east = exchange_by_name("mae-east")
        assert mae_east.largest
        assert mae_east.route_server_peers == max(
            e.route_server_peers for e in EXCHANGE_POINTS
        )

    def test_unknown_exchange_raises(self):
        with pytest.raises(KeyError):
            exchange_by_name("LINX")


def _tier(nodes, tier):
    return [node for node in nodes if node.tier is tier]


def _all_prefixes(nodes):
    return [prefix for node in nodes for prefix in node.plan.announced]


class TestAsGraph:
    def test_tier_counts(self):
        nodes, _ = internet_topology(
            n_backbones=6, n_regionals=10, n_customers=50, seed=2
        )
        assert len(_tier(nodes, Tier.BACKBONE)) == 6
        assert len(_tier(nodes, Tier.REGIONAL)) == 10
        assert len(_tier(nodes, Tier.CUSTOMER)) == 50
        assert len(nodes) == 66

    def test_backbones_fully_meshed(self):
        nodes, edges = internet_topology(n_backbones=5, seed=2)
        backbone_asns = {b.asn for b in _tier(nodes, Tier.BACKBONE)}
        for a in sorted(backbone_asns):
            neighbors = {y for x, y in edges if x == a}
            neighbors |= {x for x, y in edges if y == a}
            assert backbone_asns - {a} <= neighbors

    def test_deterministic_for_seed(self):
        a, _ = internet_topology(seed=5)
        b, _ = internet_topology(seed=5)
        assert sorted(map(str, _all_prefixes(a))) == sorted(
            map(str, _all_prefixes(b))
        )

    def test_multi_homed_fraction_near_target(self):
        nodes, _ = internet_topology(
            n_customers=400, multi_homed_fraction=0.25, seed=3
        )
        customers = _tier(nodes, Tier.CUSTOMER)
        fraction = sum(c.multi_homed for c in customers) / len(customers)
        assert 0.18 <= fraction <= 0.32

    def test_customers_have_providers(self):
        nodes, edges = internet_topology(seed=4)
        for customer in _tier(nodes, Tier.CUSTOMER):
            providers = [y for x, y in edges if x == customer.asn]
            assert len(providers) == (2 if customer.multi_homed else 1)
            assert all(nodes[p - 1].tier is not Tier.CUSTOMER
                       for p in providers)

    def test_prefixes_unique_across_ases(self):
        nodes, _ = internet_topology(seed=6)
        prefixes = _all_prefixes(nodes)
        assert len(prefixes) == len(set(prefixes))

    def test_backbone_aggregates_are_blocks(self):
        nodes, _ = internet_topology(seed=7)
        for backbone in _tier(nodes, Tier.BACKBONE):
            assert backbone.plan.aggregates
            assert all(p.length <= 10 for p in backbone.plan.aggregates)

    def test_swamp_customers_aggregate_poorly(self):
        nodes, _ = internet_topology(
            n_customers=200, legacy_fraction=1.0,
            multi_homed_fraction=0.0, seed=8,
        )
        specifics = [
            p for c in _tier(nodes, Tier.CUSTOMER) for p in c.plan.specifics
        ]
        assert specifics
        # Scattered /24s: almost none has its /23 sibling among them.
        assert len({p.network >> 9 for p in specifics}) > 0.9 * len(specifics)


#: The modules the CLI, the simulator, the campaign runner and every
#: ``perf`` workload enter through.
ENTRY_POINTS = (
    "repro.sim", "repro.campaign", "repro.collector.log", "repro.__main__",
)


def _in_child(code):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestNetworkxIsImportedWhereItIsUsed:
    """The AS topology generator was the package's one networkx user;
    it builds plain lists now, so no entry point needs networkx or
    pays for it, not even when it generates a topology."""

    def test_entry_points_import_without_networkx(self):
        done = _in_child(
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            f"import {', '.join(ENTRY_POINTS)}\n"
            "from repro.topology.asgraph import internet_topology\n"
            "nodes, edges = internet_topology()\n"
            "print(len(nodes))\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["152"]

    def test_entry_points_leave_networkx_unimported(self):
        done = _in_child(
            "import sys\n"
            f"import {', '.join(ENTRY_POINTS)}\n"
            "print('networkx' in sys.modules)\n"
            "from repro.topology.asgraph import internet_topology\n"
            "internet_topology(n_customers=4)\n"
            "print('networkx' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "False"]

    def test_graph_is_the_one_built_before(self):
        """Nodes in ASN order with their records, and the edge set, of
        the default topology — digest recorded at the commit that
        still imported networkx at module level."""
        records, adjacencies = internet_topology(seed=5)
        nodes = [
            (
                node.asn,
                node.tier.name,
                node.multi_homed,
                node.legacy,
                [str(p) for p in node.plan.announced],
            )
            for node in records
        ]
        edges = sorted(tuple(sorted(e)) for e in adjacencies)
        assert (len(nodes), len(edges)) == (152, 231)
        blob = json.dumps([nodes, edges], sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "b5eade412220e3f9a0a9b83b84c021690713d4a0e3662608290bebc15b87b8d0"
        )


def all_established(exchange):
    """Every configured session, at the route server and between the
    providers, is up at both ends."""
    routers = [exchange.route_server, *exchange.providers]
    sessions = [s for r in routers for s in r.sessions.values()]
    return len(sessions) == 2 * exchange.session_count and all(
        s.is_established for s in sessions
    )


class TestExchangePoint:
    def test_full_mesh_session_count(self):
        engine = Engine()
        xp = ExchangePoint(engine, full_mesh=True)
        for i in range(4):
            xp.attach_provider(
                Router(engine, asn=100 + i, router_id=i + 1), start=False
            )
        # 4 server sessions + C(4,2)=6 bilateral.
        assert xp.session_count == 10

    def test_route_server_only_is_linear(self):
        engine = Engine()
        xp = ExchangePoint(engine, full_mesh=False)
        for i in range(10):
            xp.attach_provider(
                Router(engine, asn=100 + i, router_id=i + 1), start=False
            )
        assert xp.session_count == 10

    def test_sessions_establish(self):
        engine = Engine()
        xp = ExchangePoint(engine, full_mesh=True)
        for i in range(3):
            xp.attach_provider(
                Router(engine, asn=100 + i, router_id=i + 1, mrai_interval=5.0)
            )
        engine.run_until(60.0)
        assert all_established(xp)


class TestMultihomingModel:
    def test_linear_growth(self):
        model = MultihomingGrowthModel(noise=0.0, seed=1)
        series = model.series(n_days=270)
        rate = series.growth_per_day()
        # Recovered slope should approximate the configured one (the
        # upgrade spike biases it slightly upward).
        assert 40.0 <= rate <= 80.0

    def test_gap_days_are_none(self):
        model = MultihomingGrowthModel(gap=(100, 110), seed=1)
        series = model.series(n_days=270)
        assert all(series.counts[d] is None for d in range(100, 111))
        assert series.counts[99] is not None

    def test_upgrade_spike_visible(self):
        model = MultihomingGrowthModel(
            noise=0.0, upgrade_day=55, upgrade_duration=4,
            upgrade_magnitude=2.6, seed=1,
        )
        normal = model.count_on(54)
        spiked = model.count_on(56)
        assert spiked > 2 * normal

    def test_fraction_over_quarter(self):
        """The paper: more than 25% of the ~42 000 prefixes of the
        default-free table are multi-homed."""
        model = MultihomingGrowthModel(seed=1)
        # Mid-campaign (paper wrote this in early 1997, after the data).
        assert model.count_on(200) / 42000 > 0.25

    def test_deterministic(self):
        a = MultihomingGrowthModel(seed=9).series(50).counts
        b = MultihomingGrowthModel(seed=9).series(50).counts
        assert a == b


class TestCoreInternetScenario:
    """Figure 10's exchange: the ``core_exchange`` world, one border
    router per provider AS of a generated topology."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.sim.studies import core_exchange

        return core_exchange(Engine)

    def test_all_sessions_come_up(self, world):
        # A full mesh: each provider peers with the route server and
        # with every other provider; each session has two ends.
        n = len(world.routers) - 1  # less the route server
        sessions = [
            session
            for router in world.routers.values()
            for session in router.sessions.values()
        ]
        assert len(sessions) == 2 * (n + n * (n - 1) // 2)
        assert all(session.is_established for session in sessions)

    def test_route_server_sees_full_table(self, world):
        # Ground truth from the topology itself, not from how the
        # builder assigns prefixes to routers.
        nodes, _ = internet_topology(
            n_backbones=3, n_regionals=4, n_customers=30,
            multi_homed_fraction=0.3, seed=11,
        )
        expected = {p for node in nodes for p in node.plan.announced}
        server = world.routers["route server"]
        assert set(server.loc_rib.prefixes()) == expected

    def test_settle_clears_convergence_noise(self, world):
        assert len(world.sink) == 0

    def test_flaps_reach_the_route_server(self, world):
        provider = next(iter(world.routers.values()))  # a provider
        prefix = provider.originated[0]
        provider.flap_origin(prefix, down_for=6.0)
        world.engine.run_until(world.engine.now + 60.0)
        assert len(world.sink) >= 2  # withdrawal + re-announcement
