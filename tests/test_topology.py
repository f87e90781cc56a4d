"""Tests for topology generation, exchange points, and multi-homing."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.topology.asgraph import Tier, build_internet_graph
from repro.topology.exchange import EXCHANGE_POINTS, exchange_by_name
from repro.topology.internet import CoreInternetScenario
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


class TestAsGraph:
    def test_tier_counts(self):
        g = build_internet_graph(
            n_backbones=6, n_regionals=10, n_customers=50, seed=2
        )
        assert len(g.backbones) == 6
        assert len(g.regionals) == 10
        assert len(g.customers) == 50
        assert len(g) == 66

    def test_backbones_fully_meshed(self):
        g = build_internet_graph(n_backbones=5, seed=2)
        backbone_asns = {b.asn for b in g.backbones}
        for a in sorted(backbone_asns):
            neighbors = set(g.graph.neighbors(a))
            assert backbone_asns - {a} <= neighbors

    def test_deterministic_for_seed(self):
        a = build_internet_graph(seed=5)
        b = build_internet_graph(seed=5)
        assert sorted(map(str, a.all_prefixes())) == sorted(
            map(str, b.all_prefixes())
        )

    def test_multi_homed_fraction_near_target(self):
        g = build_internet_graph(
            n_customers=400, multi_homed_fraction=0.25, seed=3
        )
        assert 0.18 <= g.multi_homed_fraction() <= 0.32

    def test_customers_have_providers(self):
        g = build_internet_graph(seed=4)
        for customer in g.customers:
            providers = g.providers_of(customer.asn)
            assert len(providers) == (2 if customer.multi_homed else 1)

    def test_prefixes_unique_across_ases(self):
        g = build_internet_graph(seed=6)
        prefixes = g.all_prefixes()
        assert len(prefixes) == len(set(prefixes))

    def test_backbone_aggregates_are_blocks(self):
        g = build_internet_graph(seed=7)
        for backbone in g.backbones:
            assert backbone.plan.aggregates
            assert all(p.length <= 10 for p in backbone.plan.aggregates)

    def test_swamp_customers_aggregate_poorly(self):
        g = build_internet_graph(
            n_customers=200, legacy_fraction=1.0,
            multi_homed_fraction=0.0, seed=8,
        )
        specifics = [
            p for c in g.customers for p in c.plan.specifics
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
    """``build_internet_graph`` is the package's one networkx call
    site; nothing else may need it or pay for it."""

    def test_entry_points_import_without_networkx(self):
        done = _in_child(
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            f"import {', '.join(ENTRY_POINTS)}\n"
            "from repro.topology.asgraph import build_internet_graph\n"
            "try:\n"
            "    build_internet_graph()\n"
            "except ImportError:\n"
            "    print('graph needs networkx')\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[0] == "graph needs networkx"

    def test_entry_points_leave_networkx_unimported(self):
        done = _in_child(
            "import sys\n"
            f"import {', '.join(ENTRY_POINTS)}\n"
            "print('networkx' in sys.modules)\n"
            "from repro.topology.asgraph import build_internet_graph\n"
            "build_internet_graph(n_customers=4)\n"
            "print('networkx' in sys.modules)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]

    def test_graph_is_the_one_built_before(self):
        """Nodes in insertion order with their records, and the edge
        set, of the default graph — digest recorded at the commit that
        still imported networkx at module level."""
        g = build_internet_graph(seed=5)
        nodes = [
            (
                asn,
                g.node(asn).tier.name,
                g.node(asn).multi_homed,
                g.node(asn).legacy,
                [str(p) for p in g.node(asn).announced_prefixes],
            )
            for asn in g.graph.nodes
        ]
        edges = sorted(tuple(sorted(e)) for e in g.graph.edges)
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
        """The paper: more than 25% of prefixes are multi-homed."""
        model = MultihomingGrowthModel(seed=1)
        # Mid-campaign (paper wrote this in early 1997, after the data).
        frac = model.multi_homed_fraction(200)
        assert frac > 0.25

    def test_deterministic(self):
        a = MultihomingGrowthModel(seed=9).series(50).counts
        b = MultihomingGrowthModel(seed=9).series(50).counts
        assert a == b


class TestCoreInternetScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.topology.asgraph import build_internet_graph

        graph = build_internet_graph(
            n_backbones=3, n_regionals=4, n_customers=20, seed=11
        )
        scenario = CoreInternetScenario(graph=graph, mrai_interval=5.0, seed=11)
        scenario.settle(120.0)
        return scenario

    def test_all_sessions_come_up(self, scenario):
        assert all_established(scenario.exchange)

    def test_route_server_sees_full_table(self, scenario):
        expected = len(set(scenario.graph.all_prefixes()))
        assert len(scenario.route_server.loc_rib) == expected

    def test_settle_clears_convergence_noise(self, scenario):
        assert len(scenario.sink) == 0

    def test_flaps_reach_the_route_server(self, scenario):
        provider = next(iter(scenario.routers.values()))
        prefix = provider.originated[0]
        provider.flap_origin(prefix, down_for=6.0)
        scenario.engine.run_until(scenario.engine.now + 60.0)
        assert len(scenario.sink) >= 2  # withdrawal + re-announcement
