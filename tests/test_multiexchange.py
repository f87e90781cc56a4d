"""Tests for wire-mode links and the cross-exchange day (section 5)."""

from dataclasses import replace

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import KeepAliveMessage, UpdateMessage
from repro.net.prefix import Prefix
from repro.experiments.crossexchange import (
    exchange_counts,
    min_pairwise_similarity,
    profile_similarity,
)
from repro.sim.engine import Engine
from repro.sim.link import Link
from repro.sim.partition import ExchangePartition, OutboxChannel
from repro.sim.router import Router, connect
from repro.sim.scenarios import _run_day, day_scenario_config

P = Prefix.parse


class TestWireLinks:
    def test_messages_survive_wire_encoding(self):
        engine = Engine()
        received = []
        link = Link(engine, wire=True)
        link.attach(1, lambda s, m: received.append(m))
        link.attach(2, lambda s, m: received.append(m))
        update = UpdateMessage(
            announced=(P("10.0.0.0/8"),),
            attributes=PathAttributes(as_path=AsPath((701,)), next_hop=5),
        )
        link.send(1, update)
        link.send(2, KeepAliveMessage())
        engine.run()
        assert update in received
        assert KeepAliveMessage() in received
        assert link.bytes_carried > 0

    def test_full_session_over_wire_links(self):
        """Routers converge identically over byte-encoded links."""
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
        link = Link(engine, wire=True)
        connect(a, b, link=link)
        engine.run_until(30.0)
        a.originate(P("10.0.0.0/8"))
        engine.run_until(90.0)
        best = b.loc_rib.best(P("10.0.0.0/8"))
        assert best is not None
        assert tuple(best.attributes.as_path) == (100,)
        assert link.bytes_carried > 100

    def test_in_flight_compaction(self):
        engine = Engine()
        link = Link(engine, delay=0.001)
        link.attach(1, lambda s, m: None)
        link.attach(2, lambda s, m: None)
        for i in range(600):
            link.send(1, KeepAliveMessage())
            assert len(link._in_flight) == 1
            engine.run()  # deliver immediately
            # A delivery removes its own handle: nothing to compact.
            assert len(link._in_flight) == 0
        assert link.messages_delivered == 600


@pytest.fixture(scope="module")
def day():
    """The cross_exchange_day run the crossexchange experiment reads."""
    config = day_scenario_config("cross_exchange_day")
    _, partitions = _run_day(Engine, config)
    return config, partitions


def _settled(config, partition):
    return [r for r in partition.sink.records if r.time >= config.settle]


class TestMultiExchange:
    def test_three_exchanges_instrumented(self, day):
        config, partitions = day
        assert len(partitions) == config.exchanges == 3
        for partition in partitions:
            assert len(_settled(config, partition)) > 0

    def test_every_provider_attends_its_home_exchange(self, day):
        config, partitions = day
        for provider in range(config.providers):
            home = provider % config.exchanges
            assert home in config.attended(provider)
            assert provider in partitions[home].routers

    def test_shared_faults_visible_at_multiple_exchanges(self, day):
        """A provider's flap shows up wherever it peers."""
        config, partitions = day
        provider = next(
            p for p in range(config.providers)
            if len(config.attended(p)) >= 2
        )
        asn = 1000 + provider
        touched = {
            partition.index
            for partition in partitions
            if provider in partition.routers
            and any(r.peer_asn == asn for r in _settled(config, partition))
        }
        assert len(touched) >= 2

    def test_profiles_similar_volumes_differ(self, day):
        config, partitions = day
        counts = exchange_counts(partitions)
        assert min_pairwise_similarity(counts) > 0.8
        volumes = [c.total for c in counts.values()]
        assert max(volumes) > min(volumes)  # attendance varies

    def test_profile_similarity_bounds(self):
        sim = profile_similarity
        assert sim({"a": 1.0}, {"a": 1.0}) == pytest.approx(1.0)
        assert sim({"a": 1.0}, {"b": 1.0}) == pytest.approx(0.0)
        assert sim({}, {"a": 1.0}) == 0.0

    def test_classification_counts_match_sink(self, day):
        config, partitions = day
        counts = exchange_counts(partitions)
        for partition in partitions:
            name = partition.exchange.name
            assert counts[name].total == len(_settled(config, partition))

    @pytest.mark.parametrize("fraction", [0.0, 0.2, 0.25, 0.5, 1.0])
    def test_stateless_fraction_marks_an_even_share(self, day, fraction):
        """``int(providers * f)`` providers are stateless (none at 0),
        and their routers in every partition are."""
        config, partitions = day
        config = replace(config, stateless_fraction=fraction)
        for providers in (9, 10, 90):
            marked = replace(config, providers=providers)
            assert sum(
                marked.stateless(p) for p in range(providers)
            ) == int(providers * fraction)
        for index in range(config.exchanges):
            alone = ExchangePartition(config, index, Engine())
            alone.build(OutboxChannel())
            for provider, router in alone.routers.items():
                assert router.stateless_bgp == config.stateless(provider)

    def test_partitions_built_alone_match_the_inline_day(self, day):
        """Which routers are stateless needs no draw, so a partition
        built alone (as in a worker) agrees with the inline run."""
        config, partitions = day
        for partition in partitions:
            alone = ExchangePartition(config, partition.index, Engine())
            alone.build(OutboxChannel())
            assert {
                p: r.stateless_bgp for p, r in alone.routers.items()
            } == {
                p: r.stateless_bgp for p, r in partition.routers.items()
            }
        assert any(r.stateless_bgp for r in partitions[0].routers.values())
