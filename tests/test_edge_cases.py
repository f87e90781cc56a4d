"""Edge-case tests across the substrates."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import OpenMessage, UpdateMessage
from repro.bgp.session import ActionKind, PeeringSession
from repro.bgp.wire import decode_message, encode_message
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.timers import MraiBatcher

P = Prefix.parse


class TestWireExtendedLength:
    def test_large_communities_attribute_uses_extended_length(self):
        """An attribute over 255 bytes exercises the extended-length
        encoding path (70 communities = 280 bytes)."""
        attrs = PathAttributes(
            as_path=AsPath((701,)),
            next_hop=1,
            communities=frozenset(range(1, 71)),
        )
        message = UpdateMessage(announced=(P("10.0.0.0/8"),), attributes=attrs)
        decoded, _ = decode_message(encode_message(message))
        assert decoded == message
        assert len(decoded.attributes.communities) == 70

    def test_long_as_path_roundtrip(self):
        """A heavily prepended path (100 hops = 200 bytes, near the
        one-byte length limit) survives."""
        attrs = PathAttributes(
            as_path=AsPath((701,) * 99 + (3561,)), next_hop=1
        )
        message = UpdateMessage(announced=(P("10.0.0.0/8"),), attributes=attrs)
        decoded, _ = decode_message(encode_message(message))
        assert decoded.attributes.as_path == attrs.as_path

    def test_very_long_as_path_extended(self):
        """A 140-hop path crosses 255 attribute bytes -> extended."""
        attrs = PathAttributes(
            as_path=AsPath((701,) * 139 + (3561,)), next_hop=1
        )
        message = UpdateMessage(announced=(P("10.0.0.0/8"),), attributes=attrs)
        decoded, _ = decode_message(encode_message(message))
        assert decoded.attributes.as_path.hop_count == 140


class TestSessionTransportFailure:
    def test_established_session_reports_down(self):
        session = PeeringSession(local_asn=1, peer_asn=2)
        session.start(0.0)
        session.on_open(0.0, OpenMessage(asn=2))
        session.on_keepalive(0.0)
        assert session.is_established
        actions = session.on_transport_failure(1.0)
        assert [a.kind for a in actions] == [ActionKind.SESSION_DOWN]
        assert not session.is_established
        assert session.next_deadline() is None

    def test_unestablished_session_fails_quietly(self):
        session = PeeringSession(local_asn=1, peer_asn=2)
        session.start(0.0)
        assert session.on_transport_failure(1.0) == []


class TestMraiBatcherLifecycle:
    def test_stop_clears_pending(self):
        engine = Engine()
        flushes = []
        batcher = MraiBatcher(engine, flushes.append, interval=10.0)
        batcher.start()
        batcher.mark_dirty("p")
        batcher.stop()
        engine.run_until(100.0)
        assert flushes == []
        assert batcher.pending == 0

    def test_restart_after_stop(self):
        engine = Engine()
        flushes = []
        batcher = MraiBatcher(engine, flushes.append, interval=10.0)
        batcher.start()
        batcher.stop()
        batcher.start()
        batcher.mark_dirty("q")
        engine.run_until(25.0)
        assert flushes == [{"q"}]


class TestPrefixEdgeCases:
    def test_slash_31_and_32(self):
        p31 = P("10.0.0.0/31")
        assert p31.broadcast - p31.network + 1 == 2
        halves = list(p31.subnets())
        assert [str(h) for h in halves] == ["10.0.0.0/32", "10.0.0.1/32"]

    def test_whole_space_subnet_iteration_bounded(self):
        root = P("0.0.0.0/0")
        assert len(list(root.subnets(4))) == 16

    def test_covers_address_boundaries(self):
        p = P("10.0.0.0/24")
        assert p.covers_address(p.network)
        assert p.covers_address(p.broadcast)
        assert not p.covers_address(p.broadcast + 1)
        assert not p.covers_address(p.network - 1)
