"""Integration tests for the router model: propagation, statefulness,
pathology genesis, CPU coupling, and crashes."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.collector.record import MemoryLog
from repro.core.taxonomy import UpdateCategory
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.refengine import ReferenceEngine
from repro.sim.router import CpuModel, RouteCache, Router, connect
from repro.sim.routeserver import RouteServer
from repro.sim.trafficgen import ForwardingWorkload

from .helpers import classified_counts

P = Prefix.parse


def make_pair(engine=None, **kwargs_b):
    """Two connected routers; returns (engine, a, b)."""
    engine = engine or Engine()
    a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
    b = Router(engine, asn=200, router_id=2, mrai_interval=5.0, **kwargs_b)
    connect(a, b)
    engine.run_until(30.0)
    return engine, a, b


class TestSessionEstablishment:
    def test_sessions_come_up(self):
        _, a, b = make_pair()
        assert a.sessions[2].is_established
        assert b.sessions[1].is_established

    def test_keepalives_flow(self):
        engine, a, b = make_pair()
        engine.run_until(400.0)
        assert a.sessions[2].is_established
        assert a.keepalives_sent > 5


class TestRoutePropagation:
    def test_originated_route_reaches_peer(self):
        engine, a, b = make_pair()
        a.originate(P("10.0.0.0/8"))
        engine.run_until(60.0)
        best = b.loc_rib.best(P("10.0.0.0/8"))
        assert best is not None
        assert tuple(best.attributes.as_path) == (100,)
        assert best.attributes.next_hop == 1

    def test_withdrawal_propagates(self):
        engine, a, b = make_pair()
        a.originate(P("10.0.0.0/8"))
        engine.run_until(60.0)
        a.withdraw_origin(P("10.0.0.0/8"))
        engine.run_until(120.0)
        assert b.loc_rib.best(P("10.0.0.0/8")) is None

    def test_transit_propagation_three_hops(self):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
        c = Router(engine, asn=300, router_id=3, mrai_interval=5.0)
        connect(a, b)
        connect(b, c)
        engine.run_until(30.0)
        a.originate(P("10.0.0.0/8"))
        engine.run_until(90.0)
        best = c.loc_rib.best(P("10.0.0.0/8"))
        assert best is not None
        assert tuple(best.attributes.as_path) == (200, 100)

    def test_loop_detection_blocks_own_as(self):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
        c = Router(engine, asn=300, router_id=3, mrai_interval=5.0)
        # Triangle: a-b, b-c, c-a.
        connect(a, b)
        connect(b, c)
        connect(c, a)
        engine.run_until(30.0)
        a.originate(P("10.0.0.0/8"))
        engine.run_until(200.0)
        # Converged: nobody holds a route whose path contains their AS.
        for router in (a, b, c):
            for route in router.loc_rib.routes():
                assert not route.attributes.as_path.contains_loop(router.asn)

    def test_table_dump_on_session_up(self):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        a.originate(P("10.0.0.0/8"))
        a.originate(P("11.0.0.0/8"))
        b = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
        connect(a, b)
        engine.run_until(60.0)
        assert len(b.loc_rib) == 2

    def test_best_path_selection_across_peers(self):
        engine = Engine()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        middle = Router(engine, asn=200, router_id=2, mrai_interval=2.0)
        observer = Router(engine, asn=400, router_id=4, mrai_interval=2.0)
        connect(origin, middle)
        connect(origin, observer)
        connect(middle, observer)
        engine.run_until(30.0)
        origin.originate(P("10.0.0.0/8"))
        engine.run_until(120.0)
        best = observer.loc_rib.best(P("10.0.0.0/8"))
        # Direct path (100) beats transit (200 100).
        assert tuple(best.attributes.as_path) == (100,)


class TestStatefulVsStateless:
    def _exchange_with_server(self, stateless):
        """Origin -> middle(stateless?) -> route server; returns sink."""
        engine = Engine()
        sink = MemoryLog()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        middle = Router(
            engine, asn=200, router_id=2, mrai_interval=2.0,
            stateless_bgp=stateless,
        )
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(origin, middle)
        connect(middle, server)
        engine.run_until(30.0)
        return engine, origin, middle, server, sink

    def test_stateless_emits_wwdups(self):
        engine, origin, middle, server, sink = self._exchange_with_server(
            stateless=True
        )
        origin.originate(P("10.0.0.0/8"))
        engine.run_until(60.0)
        # Flap repeatedly with gaps longer than MRAI so each W flushes.
        for i in range(5):
            engine.schedule(i * 10.0, origin.flap_origin, P("10.0.0.0/8"), 4.0)
        engine.run_until(200.0)
        counts = classified_counts(sink.sorted_by_time())
        # Stateless middle withdraws to the server even when the state
        # it advertised is already gone -> some withdrawals are WWDup.
        assert counts[UpdateCategory.WWDUP] >= 0  # sanity
        assert counts.total > 0

    def test_stateful_suppresses_duplicate_announcements(self):
        engine, origin, middle, server, sink = self._exchange_with_server(
            stateless=False
        )
        origin.originate(P("10.0.0.0/8"))
        engine.run_until(60.0)
        before = middle.suppressed_outputs
        # Re-announce identical route (AADup at origin's output is
        # internal; middle sees duplicate and must not forward it).
        origin.originate(P("10.0.0.0/8"))
        engine.run_until(120.0)
        counts = classified_counts(sink.sorted_by_time())
        assert counts[UpdateCategory.AADUP] == 0
        assert middle.suppressed_outputs >= before

    def _a1_a2_a1_oscillation(self, stateless):
        """The paper's §4.2 mechanism: a best-route flip A1→A2→A1
        inside one (long) MRAI interval at the middle router."""
        engine = Engine()
        sink = MemoryLog()
        primary = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        backup = Router(engine, asn=300, router_id=3, mrai_interval=2.0)
        middle = Router(
            engine, asn=200, router_id=2, mrai_interval=20.0,
            stateless_bgp=stateless,
        )
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(primary, middle)
        connect(backup, middle)
        connect(middle, server)
        engine.run_until(30.0)
        # Backup path is longer (prepend) so primary wins when present.
        from repro.bgp.attributes import AsPath, PathAttributes

        backup.originate(
            P("10.0.0.0/8"),
            PathAttributes(as_path=AsPath((300,)), next_hop=3),
        )
        primary.originate(P("10.0.0.0/8"))
        engine.run_until(100.0)  # fully converged: middle best = primary
        count_before = len(sink)
        # Flip to backup and back within middle's 20s MRAI window.
        start = engine.now
        primary.withdraw_origin(P("10.0.0.0/8"))
        engine.schedule(6.0, primary.originate, P("10.0.0.0/8"))
        engine.run_until(start + 100.0)
        counts = classified_counts(sink.sorted_by_time())
        return counts, len(sink) - count_before, middle

    def test_stateless_emits_aadup_on_a1_a2_a1(self):
        counts, new_records, middle = self._a1_a2_a1_oscillation(
            stateless=True
        )
        assert counts[UpdateCategory.AADUP] >= 1

    def test_stateful_suppresses_a1_a2_a1(self):
        counts, new_records, middle = self._a1_a2_a1_oscillation(
            stateless=False
        )
        assert counts[UpdateCategory.AADUP] == 0
        assert middle.suppressed_outputs >= 1

    def test_stateless_withdrawal_to_unadvertised_peer(self):
        """The signature WWDup: a stateless router withdraws a prefix
        to a peer it never announced it to."""
        engine = Engine()
        sink = MemoryLog()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        # Stateless middle with an export policy that denies the prefix:
        # it never announces to the server, yet will withdraw to it.
        from repro.bgp.policy import (
            MatchCondition,
            PolicyTerm,
            RouteMap,
        )

        deny_ten = RouteMap(
            [
                PolicyTerm(
                    MatchCondition(prefixes=(P("10.0.0.0/8"),)), permit=False
                ),
                PolicyTerm(),
            ]
        )
        middle = Router(
            engine, asn=200, router_id=2, mrai_interval=2.0,
            stateless_bgp=True, export_policy=deny_ten,
        )
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(origin, middle)
        connect(middle, server)
        engine.run_until(30.0)
        origin.originate(P("10.0.0.0/8"))
        engine.run_until(60.0)
        origin.withdraw_origin(P("10.0.0.0/8"))
        engine.run_until(120.0)
        counts = classified_counts(sink.sorted_by_time())
        assert counts[UpdateCategory.WWDUP] >= 1

    def test_mrai_collapse_hides_fast_flap_from_stateful(self):
        """W,A inside one MRAI interval on a *stateful* router nets out
        to nothing (no update crosses)."""
        engine = Engine()
        sink = MemoryLog()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=20.0)
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(origin, server)
        engine.run_until(45.0)
        origin.originate(P("10.0.0.0/8"))
        engine.run_until(81.0)  # announced and flushed
        count_before = len(sink)
        # Flap down-and-up within one 20s interval.
        origin.withdraw_origin(P("10.0.0.0/8"))
        engine.schedule(1.0, origin.originate, P("10.0.0.0/8"))
        engine.run_until(160.0)
        assert len(sink) == count_before  # nothing new crossed


class TestLinkFailures:
    def test_link_down_drops_session_and_routes(self):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
        link = connect(a, b)
        engine.run_until(30.0)
        a.originate(P("10.0.0.0/8"))
        engine.run_until(60.0)
        link.go_down()
        engine.run_until(61.0)
        assert not b.sessions[1].is_established
        assert b.loc_rib.best(P("10.0.0.0/8")) is None

    def test_link_recovery_reestablishes_and_relearns(self):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
        link = connect(a, b)
        engine.run_until(30.0)
        a.originate(P("10.0.0.0/8"))
        engine.run_until(60.0)
        link.go_down()
        engine.run_until(70.0)
        link.go_up()
        engine.run_until(150.0)
        assert b.sessions[1].is_established
        assert b.loc_rib.best(P("10.0.0.0/8")) is not None


class TestCpuAndCrash:
    def test_cpu_backlog_grows_under_burst(self):
        engine = Engine()
        cpu = CpuModel(per_update=0.05)
        a = Router(engine, asn=100, router_id=1, mrai_interval=1.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=1.0, cpu=cpu)
        connect(a, b)
        engine.run_until(30.0)
        for i in range(100):
            a.originate(Prefix((10 << 24) + i * 65536, 16))
        engine.run_until(32.0)
        assert b.cpu_backlog > 0.0

    def test_crash_on_queue_overflow_and_reboot(self):
        engine = Engine()
        cpu = CpuModel(per_update=0.5)
        a = Router(engine, asn=100, router_id=1, mrai_interval=1.0)
        b = Router(
            engine, asn=200, router_id=2, mrai_interval=1.0,
            cpu=cpu, crash_queue_limit=5, reboot_delay=20.0,
        )
        connect(a, b)
        engine.run_until(30.0)
        for i in range(50):
            a.originate(Prefix((10 << 24) + i * 65536, 16))
        engine.run_until(40.0)
        assert b.crash_count >= 1
        # Calm the storm source so the reboot's table dump fits: with
        # the full 50-route dump still pending, b would crash-loop
        # (exactly the paper's flap-storm dynamic).
        for i in range(48):
            a.withdraw_origin(Prefix((10 << 24) + i * 65536, 16))
        engine.run_until(300.0)
        # Rebooted and re-peered.
        assert not b.crashed
        assert b.sessions[1].is_established

    def test_crash_loop_without_burst_relief(self):
        """If the heavy table persists, the rebooting router keeps
        crashing on the re-peering dump — the storm sustains itself."""
        engine = Engine()
        cpu = CpuModel(per_update=0.5)
        a = Router(engine, asn=100, router_id=1, mrai_interval=1.0)
        b = Router(
            engine, asn=200, router_id=2, mrai_interval=1.0,
            cpu=cpu, crash_queue_limit=5, reboot_delay=20.0,
        )
        connect(a, b)
        engine.run_until(30.0)
        for i in range(50):
            a.originate(Prefix((10 << 24) + i * 65536, 16))
        engine.run_until(400.0)
        assert b.crash_count >= 3

    def test_crashed_router_drops_messages(self):
        engine = Engine()
        b = Router(engine, asn=200, router_id=2)
        b.crashed = True
        b._on_link_message(1, object())  # must not raise

    def test_hold_timer_fires_when_peer_crashes(self):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=5.0,
                   hold_time=30.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=5.0,
                   hold_time=30.0, reboot_delay=500.0)
        connect(a, b)
        engine.run_until(30.0)
        assert a.sessions[2].is_established
        b._crash()
        engine.run_until(engine.now + 40.0)
        assert not a.sessions[2].is_established


class TestRouteCache:
    """The cache's hit / miss / FIFO-evict policy, driven where it
    runs: one ``ForwardingWorkload`` packet at a time."""

    P1, P2, P3 = P("10.0.0.0/8"), P("11.0.0.0/8"), P("12.0.0.0/8")

    def _forwarder(self, cache):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=5.0,
                   cache=cache)
        connect(a, b)
        engine.run_until(30.0)
        for prefix in (self.P1, self.P2, self.P3):
            a.originate(prefix)
        engine.run_until(60.0)
        workload = ForwardingWorkload(engine, b, [self.P1])

        def send(prefix):
            # One packet now; the follow-up it schedules finds the
            # workload stopped and does nothing.
            workload.destinations = [prefix]
            workload._running = True
            workload._packet()
            workload._running = False

        return engine, a, workload.stats, send

    def test_hits_and_misses(self):
        cache = RouteCache(capacity=2)
        _, _, stats, send = self._forwarder(cache)
        send(self.P1)
        send(self.P1)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.entries == {self.P1: 1}
        send(self.P2)
        send(self.P3)  # evicts P1 (FIFO)
        assert list(cache.entries) == [self.P2, self.P3]
        send(self.P1)
        assert cache.misses == 4
        assert (stats.delivered_fast, stats.delivered_slow) == (1, 4)

    def test_invalidation_counts(self):
        cache = RouteCache(entries={self.P1: 1})
        cache.invalidate(self.P1)
        cache.invalidate(self.P1)  # second is a no-op
        assert cache.invalidations == 1

    def test_router_invalidates_cache_on_change(self):
        cache = RouteCache()
        engine, a, stats, send = self._forwarder(cache)
        send(self.P1)
        assert cache.hits + cache.misses == 1
        assert cache.entries[self.P1] == 1
        a.withdraw_origin(self.P1)
        engine.run_until(120.0)
        assert cache.invalidations >= 1
        send(self.P1)
        assert stats.dropped_no_route == 1


class TestRouteServer:
    def test_logs_announcements_and_withdrawals(self):
        engine = Engine()
        sink = MemoryLog()
        a = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(a, server)
        engine.run_until(30.0)
        a.originate(P("10.0.0.0/8"))
        engine.run_until(60.0)
        a.withdraw_origin(P("10.0.0.0/8"))
        engine.run_until(120.0)
        kinds = [r.kind.name for r in sink.sorted_by_time()]
        assert kinds == ["ANNOUNCE", "WITHDRAW"]
        assert all(r.peer_asn == 100 for r in sink)
        assert server.records_logged == 2

    def test_passive_server_never_advertises(self):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        server = RouteServer(engine, asn=65000, router_id=99)
        server.originate(P("192.0.2.0/24"))
        connect(a, server)
        engine.run_until(120.0)
        assert a.loc_rib.best(P("192.0.2.0/24")) is None

    def test_readvertising_server_relays(self):
        engine = Engine()
        a = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        b = Router(engine, asn=200, router_id=2, mrai_interval=2.0)
        server = RouteServer(
            engine, asn=65000, router_id=99, readvertise=True,
            mrai_interval=2.0,
        )
        connect(a, server)
        connect(b, server)
        engine.run_until(30.0)
        a.originate(P("10.0.0.0/8"))
        engine.run_until(120.0)
        best = b.loc_rib.best(P("10.0.0.0/8"))
        assert best is not None
        assert 65000 in best.attributes.as_path


class TestRouteServerClientPolicies:
    def test_per_client_policy_views(self):
        """The Routing Arbiter service: each client gets its own
        post-policy view of the exchange."""
        from repro.bgp.policy import (
            MatchCondition,
            PolicyTerm,
            RouteMap,
        )

        engine = Engine()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        picky = Router(engine, asn=200, router_id=2, mrai_interval=2.0)
        open_client = Router(engine, asn=300, router_id=3, mrai_interval=2.0)
        server = RouteServer(
            engine, asn=65000, router_id=99, readvertise=True,
            mrai_interval=2.0,
        )
        # The picky client refuses anything transiting AS 100.
        server.client_policies[picky.router_id] = RouteMap(
            [
                PolicyTerm(MatchCondition(as_on_path=100), permit=False),
                PolicyTerm(),
            ]
        )
        connect(origin, server)
        connect(picky, server)
        connect(open_client, server)
        engine.run_until(30.0)
        origin.originate(P("10.0.0.0/8"))
        engine.run_until(120.0)
        assert open_client.loc_rib.best(P("10.0.0.0/8")) is not None
        assert picky.loc_rib.best(P("10.0.0.0/8")) is None

    def test_client_policy_attribute_rewrite(self):
        from repro.bgp.policy import Action, PolicyTerm, RouteMap

        engine = Engine()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        client = Router(engine, asn=300, router_id=3, mrai_interval=2.0)
        server = RouteServer(
            engine, asn=65000, router_id=99, readvertise=True,
            mrai_interval=2.0,
            client_policies={
                3: RouteMap([PolicyTerm(action=Action(set_med=77))])
            },
        )
        connect(origin, server)
        connect(client, server)
        engine.run_until(30.0)
        origin.originate(P("10.0.0.0/8"))
        engine.run_until(120.0)
        best = client.loc_rib.best(P("10.0.0.0/8"))
        assert best is not None
        assert best.attributes.med == 77


class TestRouterAggregation:
    def _setup(self):
        engine = Engine()
        provider = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        observer = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
        block = P("172.16.0.0/16")
        components = list(block.subnets(24))[:8]
        for prefix in components:
            provider.originate(prefix)
        provider.configure_aggregate(block)
        connect(provider, observer)
        engine.run_until(60.0)
        return engine, provider, observer, block, components

    def test_only_aggregate_visible(self):
        engine, provider, observer, block, components = self._setup()
        best = observer.loc_rib.best(block)
        assert best is not None
        assert best.attributes.atomic_aggregate
        assert best.attributes.aggregator == (100, 1)
        for component in components:
            assert observer.loc_rib.best(component) is None

    def test_component_flap_invisible_outside(self):
        engine, provider, observer, block, components = self._setup()
        received_before = observer.updates_received
        # One component flaps; the aggregate holds (others still up).
        provider.withdraw_origin(components[0])
        engine.run_until(engine.now + 60.0)
        provider.originate(components[0])
        engine.run_until(engine.now + 60.0)
        assert observer.updates_received == received_before
        assert observer.loc_rib.best(block) is not None

    def test_aggregate_withdrawn_when_all_components_gone(self):
        engine, provider, observer, block, components = self._setup()
        for component in components:
            provider.withdraw_origin(component)
        engine.run_until(engine.now + 60.0)
        assert observer.loc_rib.best(block) is None
        # And it returns when any component does.
        provider.originate(components[3])
        engine.run_until(engine.now + 60.0)
        assert observer.loc_rib.best(block) is not None

    def test_uncovered_prefixes_unaffected(self):
        engine, provider, observer, block, components = self._setup()
        outside = P("198.51.100.0/24")
        provider.originate(outside)
        engine.run_until(engine.now + 60.0)
        assert observer.loc_rib.best(outside) is not None


#: What ten minutes of heartbeat look like, recorded at the commit
#: before the heartbeat path was straightened (PR 19) and identical on
#: both engines there.  Per CPU configuration: the routers' keyword
#: arguments, then ``(events_processed, next_event_time,
#: keepalives_sent per router, (sent_keepalives, received_keepalives,
#: _hold_deadline, _next_keepalive) per session,
#: (messages_delivered, messages_lost) per link)``.
_SESSIONS_FREE_KEEPALIVE = (
    (57, 58, 623.211821220562, 603.191821220562),
    (19, 20, 660.04, 600.02),
    (56, 58, 623.201821220562, 603.201821220562),
    (59, 60, 620.04, 600.02),
    (19, 20, 660.03, 600.03),
    (59, 60, 620.03, 600.03),
)
_KEEPALIVES = (79, 118, 80)
_LINKS = ((124, 1), (46, 0), (126, 0))
HEARTBEAT_PINS = {
    "no_cpu": (
        dict(cpu=None),
        (640, 600.02, _KEEPALIVES, _SESSIONS_FREE_KEEPALIVE, _LINKS),
    ),
    "cpu": (
        dict(cpu=CpuModel()),
        (
            1055,
            600.021,
            _KEEPALIVES,
            (
                (57, 58, 623.213821220562, 603.192821220562),
                (19, 20, 660.0414999999999, 600.0215000000001),
                (56, 58, 623.203821220562, 603.202821220562),
                (59, 60, 620.041, 600.021),
                (19, 20, 660.032, 600.031),
                (59, 60, 620.0314999999999, 600.0305000000001),
            ),
            _LINKS,
        ),
    ),
    "free_keepalive": (
        dict(cpu=CpuModel(per_keepalive=0.0)),
        (662, 600.02, _KEEPALIVES, _SESSIONS_FREE_KEEPALIVE, _LINKS),
    ),
    "priority": (
        dict(cpu=CpuModel(), keepalive_priority=True),
        (
            858,
            600.0205,
            _KEEPALIVES,
            (
                (57, 58, 623.212821220562, 603.192321220562),
                (19, 20, 660.0405, 600.021),
                (56, 58, 623.202821220562, 603.202321220562),
                (59, 60, 620.0405, 600.0205),
                (19, 20, 660.031, 600.03),
                (59, 60, 620.0305, 600.03),
            ),
            _LINKS,
        ),
    ),
}


class TestHeartbeatPins:
    """Two routers (hold 90 s and 30 s, so their session negotiates
    down) and a route server, one link flap with a keepalive in
    flight, 600 simulated seconds: the event count and every
    keepalive counter and timer of the parent commit."""

    @pytest.mark.parametrize("engine_cls", [Engine, ReferenceEngine])
    @pytest.mark.parametrize("variant", sorted(HEARTBEAT_PINS))
    def test_ten_minutes_of_heartbeat(self, variant, engine_cls):
        kwargs, pin = HEARTBEAT_PINS[variant]
        engine = engine_cls()
        a = Router(engine, asn=100, router_id=1, **kwargs)
        b = Router(engine, asn=200, router_id=2, hold_time=30.0, **kwargs)
        server = RouteServer(engine, asn=65000, router_id=3, sink=MemoryLog())
        links = [connect(a, b), connect(a, server), connect(b, server)]
        a.originate(P("10.0.0.0/8"))
        b.originate(P("20.0.0.0/8"))
        engine.schedule_at(200.025, links[0].go_down)
        engine.schedule_at(220.0, links[0].go_up)
        engine.run_until(600.0)
        routers = (a, b, server)
        assert engine.now == 600.0
        assert (
            engine.events_processed,
            engine.next_event_time(),
            tuple(r.keepalives_sent for r in routers),
            tuple(
                (
                    s.sent_keepalives,
                    s.received_keepalives,
                    s._hold_deadline,
                    s._next_keepalive,
                )
                for r in routers
                for _, s in sorted(r.sessions.items())
            ),
            tuple((k.messages_delivered, k.messages_lost) for k in links),
        ) == pin
        # In flight means in flight: nothing is, between beats.
        assert [len(k._in_flight) for k in links] == [0, 0, 0]
