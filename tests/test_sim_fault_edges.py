"""Edge-case coverage for the fault injectors and the flap-storm
scenario (previously only exercised indirectly).

The cases the issue calls out: faults scheduled at t=0, overlapping
storm bursts, and a storm spanning a day boundary — plus the
determinism guarantees the verify layer depends on (same seed, same
cascade).
"""

import random

import pytest

from repro.collector.store import SECONDS_PER_DAY
from repro.sim.engine import Engine, SimulationError
from repro.sim.faults import (
    CustomerFlapGenerator,
    MisconfiguredProvider,
)
from repro.sim.flapstorm import FlapStormScenario


def small_storm(**overrides):
    settings = dict(n_routers=3, prefixes_per_router=4, hold_time=30.0, seed=3)
    settings.update(overrides)
    return FlapStormScenario(Engine(), **settings)


class TestFaultsAtTimeZero:
    def test_engine_accepts_zero_delay_and_now_schedule(self):
        engine = Engine()
        fired = []
        engine.schedule(0.0, fired.append, "delay-0")
        engine.schedule_at(0.0, fired.append, "at-now")
        engine.run_until(1.0)
        assert fired == ["delay-0", "at-now"]
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, fired.append, "never")

    def test_misconfigured_provider_with_no_prefixes_is_harmless(self):
        storm = small_storm()
        storm.settle()
        provider = MisconfiguredProvider(
            storm.engine, storm.routers[0], foreign_prefixes=[], period=5.0
        )
        provider.start()
        storm.engine.run_until(storm.engine.now + 30.0)
        assert provider.withdrawals_emitted == 0

    def test_customer_flaps_on_router_without_originations(self):
        storm = small_storm(prefixes_per_router=0)
        storm.settle()
        generator = CustomerFlapGenerator(
            storm.engine,
            storm.routers[0],
            base_rate=1.0,
            rng=random.Random(1),
        )
        generator.start()
        storm.engine.run_until(storm.engine.now + 30.0)
        assert generator.flap_count == 0  # nothing to flap, no crash


class TestOverlappingStorms:
    def test_two_overlapping_bursts_run_and_count_updates(self):
        storm = small_storm()
        storm.settle()
        before = sum(r.updates_sent for r in storm.routers)
        # Two victims flapping over the same window.
        storm.inject_burst(victim_index=0, flaps=20, over_seconds=5.0)
        storm.inject_burst(victim_index=1, flaps=20, over_seconds=5.0)
        storm.engine.run_until(storm.engine.now + 60.0)
        after = sum(r.updates_sent for r in storm.routers)
        assert after > before

    def test_overlapping_bursts_are_deterministic(self):
        def cascade():
            storm = small_storm(seed=9)
            storm.settle()
            storm.inject_burst(victim_index=0, flaps=15, over_seconds=4.0)
            storm.inject_burst(victim_index=2, flaps=15, over_seconds=4.0)
            storm.engine.run_until(storm.engine.now + 60.0)
            return (
                storm.engine.events_processed,
                sum(r.updates_sent for r in storm.routers),
            )

        assert cascade() == cascade()

    def test_storm_same_seed_same_result(self):
        first = small_storm(seed=7).storm(
            flaps=20, over_seconds=5.0, observe_for=60.0
        )
        second = small_storm(seed=7).storm(
            flaps=20, over_seconds=5.0, observe_for=60.0
        )
        assert first.session_drops == second.session_drops
        assert first.total_updates_sent == second.total_updates_sent
        assert first.drop_times == second.drop_times


@pytest.mark.slow
class TestDayBoundary:
    def test_storm_spanning_day_boundary(self):
        # Settle, idle up to just before midnight, then flap across
        # the boundary: the cascade must carry over t=86400 without
        # scheduling errors, and update emission must continue on the
        # far side.
        storm = small_storm(prefixes_per_router=2)
        storm.settle()
        storm.engine.run_until(SECONDS_PER_DAY - 10.0)
        before = sum(r.updates_sent for r in storm.routers)
        storm.inject_burst(victim_index=0, flaps=20, over_seconds=20.0)
        storm.engine.run_until(SECONDS_PER_DAY + 120.0)
        after = sum(r.updates_sent for r in storm.routers)
        assert after > before
        assert storm.engine.now == SECONDS_PER_DAY + 120.0
