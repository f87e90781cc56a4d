"""Tests for wire-mode links and the multi-exchange scenario."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import KeepAliveMessage, UpdateMessage
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.link import Link
from repro.sim.router import Router, connect
from repro.topology.multiexchange import (
    BackboneProvider,
    MultiExchangeScenario,
)

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
def scenario():
    s = MultiExchangeScenario(seed=3)
    s.settle()
    s.run_with_faults(3600.0)
    return s


class TestMultiExchange:
    def test_three_exchanges_instrumented(self, scenario):
        assert set(scenario.exchanges) == {"Mae-East", "AADS", "PacBell"}
        for sink in scenario.sinks.values():
            assert len(sink) > 0

    def test_mae_east_hosts_every_provider(self, scenario):
        for provider in scenario.providers:
            assert "Mae-East" in provider.routers

    def test_shared_faults_visible_at_multiple_exchanges(self, scenario):
        """A provider's flap shows up wherever it peers."""
        provider = next(
            p for p in scenario.providers if len(p.routers) >= 2
        )
        touched = {
            name
            for name, sink in scenario.sinks.items()
            if name in provider.routers
            and any(r.peer_asn == provider.asn for r in sink)
        }
        assert len(touched) >= 2

    def test_profiles_similar_volumes_differ(self, scenario):
        assert scenario.min_pairwise_similarity() > 0.8
        volumes = [len(s) for s in scenario.sinks.values()]
        assert max(volumes) > min(volumes)  # attendance varies

    def test_profile_similarity_bounds(self):
        sim = MultiExchangeScenario.profile_similarity
        assert sim({"a": 1.0}, {"a": 1.0}) == pytest.approx(1.0)
        assert sim({"a": 1.0}, {"b": 1.0}) == pytest.approx(0.0)
        assert sim({}, {"a": 1.0}) == 0.0

    def test_classification_counts_match_sink(self, scenario):
        for name, sink in scenario.sinks.items():
            counts = scenario.classify_exchange(name)
            assert counts.total == len(sink)
