"""Tests for the §4.2 mechanism models: IGP oscillation, fault
injectors, self-synchronization, and flap storms."""

import random

import pytest

from repro.collector.record import MemoryLog
from repro.core.taxonomy import UpdateCategory
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.sim.faults import (
    CustomerFlapGenerator,
    MisconfiguredProvider,
)
from repro.sim.flapstorm import FlapStormScenario
from repro.sim.igp import IgpBgpRedistribution, IgpTable, RouteSource
from repro.sim.router import CpuModel, Router, connect
from repro.sim.routeserver import RouteServer
from repro.sim.sync import SynchronizationStudy, phase_coherence

from .helpers import classified_counts

P = Prefix.parse


class TestIgpTable:
    def test_native_route_wins_alone(self):
        igp = IgpTable()
        igp.add_native(P("10.0.0.0/8"))
        entry = igp.entry(P("10.0.0.0/8"))
        assert entry.source is RouteSource.NATIVE

    def test_bgp_redistributed_displaces_native(self):
        igp = IgpTable()
        igp.add_native(P("10.0.0.0/8"))
        igp.apply_bgp(P("10.0.0.0/8"), available=True)
        assert igp.is_bgp_derived(P("10.0.0.0/8"))

    def test_bgp_removal_restores_native(self):
        igp = IgpTable()
        igp.add_native(P("10.0.0.0/8"))
        igp.apply_bgp(P("10.0.0.0/8"), available=True)
        igp.apply_bgp(P("10.0.0.0/8"), available=False)
        assert igp.entry(P("10.0.0.0/8")).source is RouteSource.NATIVE

    def test_no_routes_no_entry(self):
        igp = IgpTable()
        igp.apply_bgp(P("10.0.0.0/8"), available=False)
        assert igp.entry(P("10.0.0.0/8")) is None


class TestIgpBgpOscillation:
    def _run(self, filtered, duration=600.0):
        engine = Engine()
        sink = MemoryLog()
        router = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(router, server)
        igp = IgpTable()
        igp.add_native(P("10.1.0.0/16"))
        redist = IgpBgpRedistribution(
            engine, router, igp, igp_period=30.0, filtered=filtered
        )
        redist.start()
        engine.run_until(duration)
        return redist, sink

    def test_misconfigured_oscillates_at_igp_period(self):
        redist, sink = self._run(filtered=False)
        # A full W/A cycle per two IGP ticks over 600s of 30s ticks.
        assert redist.oscillation_count >= 8
        counts = classified_counts(sink.sorted_by_time())
        assert counts[UpdateCategory.WADUP] >= 3

    def test_oscillation_interarrivals_are_multiples_of_period(self):
        redist, sink = self._run(filtered=False)
        times = sorted(r.time for r in sink)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps  # something flowed
        for gap in gaps:
            ratio = gap / 30.0
            assert abs(ratio - round(ratio)) < 0.2

    def test_filtered_configuration_stabilizes(self):
        redist, sink = self._run(filtered=True)
        # One announcement settles it: no withdrawals ever.
        counts = classified_counts(sink.sorted_by_time())
        assert counts[UpdateCategory.WADUP] == 0
        assert counts[UpdateCategory.WWDUP] == 0
        assert redist.oscillation_count <= 2


class TestFaultInjectors:
    def test_customer_flap_generator_rate(self):
        engine = Engine()
        router = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        for i in range(10):
            router.originate(Prefix((10 << 24) + i * 65536, 16))
        gen = CustomerFlapGenerator(
            engine, router, base_rate=1 / 60.0, rng=random.Random(2)
        )
        gen.start()
        engine.run_until(3600.0)
        # ~60 expected flaps; allow wide tolerance.
        assert 25 <= gen.flap_count <= 120

    def test_customer_flap_intensity_modulation(self):
        engine = Engine()
        router = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        router.originate(P("10.0.0.0/8"))
        quiet = CustomerFlapGenerator(
            engine, router, base_rate=1 / 60.0,
            intensity=lambda now: 0.0, rng=random.Random(3),
        )
        quiet.start()
        engine.run_until(3600.0)
        assert quiet.flap_count == 0

    def test_misconfigured_provider_emits_wwdups(self):
        engine = Engine()
        sink = MemoryLog()
        bad = Router(
            engine, asn=666, router_id=6, mrai_interval=5.0,
            stateless_bgp=True,
        )
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(bad, server)
        engine.run_until(30.0)
        foreign = [P("192.42.113.0/24"), P("198.51.100.0/24")]
        mis = MisconfiguredProvider(
            engine, bad, foreign, period=30.0, rng=random.Random(4)
        )
        mis.start()
        engine.run_until(330.0)
        counts = classified_counts(sink.sorted_by_time())
        # Every emitted withdrawal concerns a never-announced prefix.
        assert counts[UpdateCategory.WWDUP] >= 10
        assert counts.total == counts[UpdateCategory.WWDUP]

    def test_misconfigured_provider_periodicity(self):
        engine = Engine()
        sink = MemoryLog()
        bad = Router(engine, asn=666, router_id=6, mrai_interval=5.0)
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(bad, server)
        engine.run_until(30.0)
        mis = MisconfiguredProvider(
            engine, bad, [P("192.42.113.0/24")], period=30.0
        )
        mis.start()
        engine.run_until(630.0)
        times = sorted(r.time for r in sink)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert gaps and all(abs(g - 30.0) < 1.0 for g in gaps)


class TestSelfSynchronization:
    def test_unjittered_system_synchronizes(self):
        for seed in (3, 7, 11):
            study = SynchronizationStudy(jitter=0.0, seed=seed)
            study.advance(24 * 3600.0)
            assert study.final_coherence() > 0.9, seed

    def test_jittered_system_stays_incoherent(self):
        for seed in (3, 7, 11):
            study = SynchronizationStudy(jitter=0.25, seed=seed)
            study.advance(24 * 3600.0)
            assert study.final_coherence() < 0.8, seed

    def test_external_bursts_occur(self):
        study = SynchronizationStudy(jitter=0.0, seed=1)
        study.advance(3600.0)
        assert study.external_events > 0

    def test_phase_coherence_bounds(self):
        assert phase_coherence([], 30.0) == 0.0
        assert phase_coherence([0.0, 30.0, 60.0], 30.0) == pytest.approx(1.0)
        spread = [0.0, 7.5, 15.0, 22.5]
        assert phase_coherence(spread, 30.0) == pytest.approx(0.0, abs=1e-9)


class TestFlapStorm:
    def test_settled_mesh_is_fully_peered(self):
        scenario = FlapStormScenario(
            Engine(), n_routers=4, prefixes_per_router=10
        )
        scenario.settle()
        established = [
            session.is_established
            for router in scenario.routers
            for session in router.sessions.values()
        ]
        assert established == [True] * (4 * 3)  # full mesh, both ends

    STORM_CPU = dict(per_update=0.1, per_sent_update=0.05,
                     per_dump_route=0.05)

    def test_storm_ignites_with_slow_cpu(self):
        scenario = FlapStormScenario(
            Engine(),
            n_routers=5,
            prefixes_per_router=40,
            cpu=CpuModel(**self.STORM_CPU),
            hold_time=30.0,
            seed=1,
        )
        result = scenario.storm(flaps=600, over_seconds=20.0)
        # The seed burst cascades into session losses well beyond the
        # victim's own peerings.
        assert result.session_drops >= 10
        assert result.total_updates_sent > 1000
        assert result.drop_times == sorted(result.drop_times)

    def test_fast_cpu_absorbs_same_burst(self):
        scenario = FlapStormScenario(
            Engine(),
            n_routers=5,
            prefixes_per_router=40,
            cpu=CpuModel(per_update=0.001, per_sent_update=0.001,
                         per_dump_route=0.001),
            hold_time=30.0,
            seed=1,
        )
        result = scenario.storm(flaps=600, over_seconds=20.0)
        assert result.session_drops == 0

    def test_keepalive_priority_contains_storm(self):
        kwargs = dict(
            n_routers=5,
            prefixes_per_router=40,
            hold_time=30.0,
            seed=1,
        )
        vulnerable = FlapStormScenario(
            Engine(),
            cpu=CpuModel(**self.STORM_CPU),
            keepalive_priority=False,
            **kwargs,
        )
        protected = FlapStormScenario(
            Engine(),
            cpu=CpuModel(**self.STORM_CPU),
            keepalive_priority=True,
            **kwargs,
        )
        storm = vulnerable.storm(flaps=600, over_seconds=20.0)
        calm = protected.storm(flaps=600, over_seconds=20.0)
        assert storm.session_drops >= 10
        assert calm.session_drops < storm.session_drops / 4
