"""The adversarial scenario pack (repro.sim.adversary + scenarios).

Every attack kind must run on both single engines with identical
digests, survive the parallel driver at 1 and 2 workers with the same
digest (worker-count invariance — attack pulses are partition-local by
construction), produce its signature detection flag, and detect
bit-identically across the streaming tier, the columnar tier, and the
dependency-free verify oracle.
"""

import pytest

from repro.analysis.detection import detect_records_columnar
from repro.sim.adversary import (
    ATTACK_KINDS,
    AdversaryConfig,
    attack_targets,
    pulse_times,
    scenario_relationships,
    transit_asn,
)
from repro.sim.engine import Engine, SimulationError
from repro.sim.refengine import ReferenceEngine
from repro.sim.scenarios import (
    DAY_SCENARIOS,
    adversary_day_config,
    day_config,
    day_scenario_config,
    run_exchange_day_records,
    simulate,
)
from repro.verify.reference import reference_detect

SIGNATURES = {
    "hijack_moas": "moas_conflict",
    "hijack_subprefix": "subprefix_foreign",
    "route_leak": "valley_violation",
    "path_forgery": "forged_edge",
    "deagg_storm": "subprefix_deagg",
}


class TestConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            AdversaryConfig(kind="dns_poisoning")

    def test_every_kind_has_a_day_scenario_and_signature(self):
        assert set(SIGNATURES) == set(ATTACK_KINDS)
        for kind in ATTACK_KINDS:
            assert kind in DAY_SCENARIOS

    def test_smoke_attacker_homes_at_the_victims_exchange(self):
        config = adversary_day_config("hijack_moas", smoke=True)
        adversary = config.adversary
        # attended() homes provider p at exchange p % exchanges, so
        # victim 1 and attacker 1 + exchanges share a home exchange —
        # the route server there sees both origins.
        assert adversary.attacker % config.exchanges == (
            adversary.victim % config.exchanges
        )

    def test_day_scenario_config_normalizes_hyphens(self):
        config = day_scenario_config("hijack-moas", smoke=True, seed=None)
        assert config.adversary is not None
        with pytest.raises(SimulationError):
            day_scenario_config("no_such_day", smoke=True, seed=None)

    def test_plain_day_has_no_adversary(self):
        assert day_config(smoke=True).adversary is None


class TestPulses:
    def test_pulse_times_are_deterministic_and_ordered(self):
        config = adversary_day_config("hijack_moas", smoke=True)
        pulses = pulse_times(config, config.adversary)
        assert pulses == pulse_times(config, config.adversary)
        assert pulses  # at least one pulse lands inside the day
        times = [announce for announce, _ in pulses]
        assert times == sorted(times)
        end = config.end_time
        for announce, withdraw in pulses:
            assert config.settle < announce < end
            assert withdraw == announce + config.adversary.up_time

    def test_different_attackers_get_different_jitter(self):
        config = adversary_day_config("hijack_moas", smoke=True)
        other = AdversaryConfig(kind="hijack_moas", attacker=7)
        assert pulse_times(config, config.adversary) != pulse_times(
            config, other
        )


class TestTargets:
    def test_route_leak_path_traverses_the_victims_transit(self):
        config = adversary_day_config("route_leak", smoke=True)
        adversary = config.adversary
        targets = attack_targets(config, adversary, next_hop=1)
        assert targets
        for _, attributes in targets:
            assert tuple(attributes.as_path) == (
                transit_asn(adversary.victim), 1000 + adversary.victim,
            )

    def test_forgery_claims_the_victims_origin(self):
        config = adversary_day_config("path_forgery", smoke=True)
        targets = attack_targets(config, config.adversary, next_hop=1)
        for _, attributes in targets:
            assert tuple(attributes.as_path) == (
                1000 + config.adversary.victim,
            )

    def test_moas_and_deagg_use_default_origination(self):
        for kind in ("hijack_moas", "hijack_subprefix", "deagg_storm"):
            config = adversary_day_config(kind, smoke=True)
            targets = attack_targets(config, config.adversary, next_hop=1)
            assert targets
            assert all(attrs is None for _, attrs in targets)

    def test_subprefix_targets_are_more_specifics(self):
        config = adversary_day_config("hijack_subprefix", smoke=True)
        targets = attack_targets(config, config.adversary, next_hop=1)
        assert all(
            prefix.length == config.adversary.subnet_length
            for prefix, _ in targets
        )

    def test_leak_topology_declares_the_leaky_edge(self):
        config = adversary_day_config("route_leak", smoke=True)
        rel = scenario_relationships(config)
        adversary = config.adversary
        assert rel.hop(
            1000 + adversary.attacker, transit_asn(adversary.victim)
        ) == "up"
        # without the adversary the edge does not exist
        plain = scenario_relationships(day_config(smoke=True))
        assert plain.hop(
            1000 + adversary.attacker, transit_asn(adversary.victim)
        ) is None


@pytest.mark.parametrize("kind", ATTACK_KINDS)
class TestScenarios:
    def test_engines_agree_and_signature_fires(self, kind):
        config = adversary_day_config(kind, smoke=True)
        events, digest, records = run_exchange_day_records(Engine, config)
        ref_events, ref_digest, _ = run_exchange_day_records(
            ReferenceEngine, config
        )
        assert (events, digest) == (ref_events, ref_digest)
        detection = detect_records_columnar(
            records, scenario_relationships(config)
        )
        assert detection.counts[SIGNATURES[kind]] > 0

    def test_detection_tiers_and_oracle_agree(self, kind):
        config = adversary_day_config(kind, smoke=True)
        _, _, records = run_exchange_day_records(Engine, config)
        topology = scenario_relationships(config)
        whole = detect_records_columnar(records, topology)
        cut = detect_records_columnar(
            records, topology, boundaries=(len(records) // 3,)
        )
        oracle = reference_detect(records, topology.edges())
        assert whole.flags == oracle
        assert cut.flags == oracle
        assert (
            whole.detector.state_digest() == cut.detector.state_digest()
        )


@pytest.mark.slow
@pytest.mark.parametrize("kind", ATTACK_KINDS)
def test_worker_count_invariance(kind):
    # The acceptance criterion: identical digests at workers 1 and 2 on
    # the parallel driver, equal to the single-engine run.
    single = simulate(kind, engine="calendar", smoke=True)
    for workers in (1, 2):
        parallel = simulate(
            kind, engine="parallel", workers=workers, smoke=True
        )
        assert parallel.digest == single.digest, (kind, workers)
        assert parallel.events == single.events


def test_hyphenated_scenario_names_work_end_to_end():
    result = simulate("hijack-moas", engine="calendar", smoke=True)
    assert result.scenario == "hijack_moas"
    assert result.events > 0


def test_attack_changes_the_digest():
    plain = simulate("multi_exchange_day", engine="calendar", smoke=True)
    attacked = simulate("hijack_moas", engine="calendar", smoke=True)
    assert plain.digest != attacked.digest


def test_seed_changes_pulse_placement():
    a = simulate("deagg_storm", engine="calendar", smoke=True, seed=1)
    b = simulate("deagg_storm", engine="calendar", smoke=True, seed=2)
    assert a.digest != b.digest
