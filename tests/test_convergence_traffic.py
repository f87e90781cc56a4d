"""Tests for convergence measurement and the forwarding workload."""

import random

import pytest

from repro.analysis.convergence import (
    ConvergenceProbe,
    ConvergenceReport,
    settle_time,
)
from repro.collector.record import MemoryLog, UpdateKind, UpdateRecord
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.router import CpuModel, RouteCache, Router, connect
from repro.sim.routeserver import RouteServer
from repro.sim.trafficgen import ForwardingWorkload, TrafficStats

P = Prefix.parse


def W(time, prefix="10.0.0.0/8"):
    return UpdateRecord(time, 1, 701, P(prefix), UpdateKind.WITHDRAW)


class TestSettleTime:
    def test_last_update_in_horizon(self):
        records = [W(100.0), W(130.0), W(160.0), W(2000.0)]
        assert settle_time(records, P("10.0.0.0/8"), 90.0, horizon=600.0) == 70.0

    def test_none_when_no_updates(self):
        assert settle_time([], P("10.0.0.0/8"), 0.0) is None
        assert settle_time([W(100.0)], P("11.0.0.0/8"), 0.0) is None

    def test_updates_before_event_ignored(self):
        records = [W(50.0), W(120.0)]
        assert settle_time(records, P("10.0.0.0/8"), 100.0) == 20.0

    def test_report_statistics(self):
        report = ConvergenceReport(times=[10.0, 20.0, 30.0])
        assert report.mean == pytest.approx(20.0)
        assert report.worst == 30.0
        assert report.count == 3
        empty = ConvergenceReport(times=[])
        assert empty.mean == 0.0 and empty.worst == 0.0


class TestConvergenceProbe:
    def test_end_to_end_measurement(self):
        engine = Engine()
        sink = MemoryLog()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(origin, server)
        prefix = P("192.0.2.0/24")
        origin.originate(prefix)
        engine.run_until(60.0)
        sink.clear()
        probe = ConvergenceProbe(engine, sink, settle_horizon=120.0)
        probe.flap(origin, prefix, down_for=10.0)
        engine.run_until(engine.now + 200.0)
        report = probe.report()
        assert report.count == 1
        # The W and the re-A both land within a couple of MRAI rounds.
        assert 0.0 < report.worst < 60.0


class TestTrafficStats:
    def test_rates(self):
        stats = TrafficStats(
            sent=100, delivered_fast=80, delivered_slow=10,
            dropped_no_route=5, dropped_overload=5,
        )
        assert stats.loss_rate == pytest.approx(0.1)

    def test_zero_division_safety(self):
        stats = TrafficStats()
        assert stats.loss_rate == 0.0


class TestForwardingWorkload:
    def _setup(self, cache=None, cpu=None):
        engine = Engine()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        forwarding = Router(
            engine, asn=200, router_id=2, mrai_interval=2.0,
            cache=cache, cpu=cpu,
        )
        connect(origin, forwarding)
        prefixes = [Prefix((50 << 24) + i * 256, 24) for i in range(20)]
        for prefix in prefixes:
            origin.originate(prefix)
        engine.run_until(60.0)
        return engine, origin, forwarding, prefixes

    def test_requires_destinations(self):
        engine = Engine()
        router = Router(engine, asn=1, router_id=1)
        with pytest.raises(ValueError):
            ForwardingWorkload(engine, router, [])

    def test_delivery_with_cache_warms_up(self):
        engine, origin, forwarding, prefixes = self._setup(
            cache=RouteCache(capacity=100)
        )
        workload = ForwardingWorkload(
            engine, forwarding, prefixes, rate=50.0,
            rng=random.Random(1),
        )
        workload.start()
        engine.run_until(engine.now + 120.0)
        stats = workload.stats
        assert stats.sent > 1000
        assert stats.loss_rate == 0.0
        # After warm-up, hits dominate: at most one compulsory miss
        # per destination.
        assert stats.delivered_slow <= len(prefixes)
        assert stats.delivered_fast > stats.delivered_slow

    def test_withdrawn_destination_drops(self):
        engine, origin, forwarding, prefixes = self._setup()
        workload = ForwardingWorkload(
            engine, forwarding, [prefixes[0]], rate=20.0,
            rng=random.Random(2),
        )
        origin.withdraw_origin(prefixes[0])
        engine.run_until(engine.now + 30.0)  # withdrawal propagates
        workload.start()
        engine.run_until(engine.now + 30.0)
        assert workload.stats.dropped_no_route == workload.stats.sent

    def test_cache_invalidation_causes_miss(self):
        cache = RouteCache(capacity=100)
        engine, origin, forwarding, prefixes = self._setup(cache=cache)
        workload = ForwardingWorkload(
            engine, forwarding, [prefixes[0]], rate=20.0,
            rng=random.Random(3),
        )
        workload.start()
        engine.run_until(engine.now + 30.0)
        misses_before = workload.stats.delivered_slow
        origin.flap_origin(prefixes[0], down_for=5.0)
        engine.run_until(engine.now + 60.0)
        assert cache.invalidations >= 1
        assert workload.stats.delivered_slow > misses_before

    def test_overloaded_cpu_drops_packets(self):
        cpu = CpuModel(per_update=0.5)
        engine, origin, forwarding, prefixes = self._setup(
            cache=RouteCache(capacity=1), cpu=cpu,
        )
        # Saturate the CPU with updates, then send packets that need
        # the slow path.  Outages must outlast the origin's MRAI (2s)
        # or the flap nets out inside the batching window.
        for i in range(60):
            engine.schedule(
                (i % 10) * 3.0,
                origin.flap_origin,
                prefixes[i % len(prefixes)],
                5.0,
            )
        workload = ForwardingWorkload(
            engine, forwarding, prefixes, rate=100.0,
            drop_backlog=0.2, rng=random.Random(4),
        )
        workload.start()
        engine.run_until(engine.now + 60.0)
        assert workload.stats.dropped_overload > 0

    def test_stop_halts_traffic(self):
        engine, origin, forwarding, prefixes = self._setup()
        workload = ForwardingWorkload(
            engine, forwarding, prefixes, rate=50.0,
            rng=random.Random(5),
        )
        workload.start()
        engine.run_until(engine.now + 10.0)
        workload.stop()
        sent = workload.stats.sent
        engine.run_until(engine.now + 60.0)
        assert workload.stats.sent == sent
