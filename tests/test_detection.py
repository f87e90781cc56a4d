"""The adversarial detection tier (repro.analysis.detection).

Unit tests for each flag's semantics, the valley-free path machine,
the sub-prefix foreign/deaggregation split, the stability counters and
scores, and the bit-identity of the columnar detector with the
reference oracle at every batch cut — including cross-batch carry and
property-style seeded checks (valley-free paths are never flagged;
MOAS detection is injection-order independent).
"""

import random

import pytest

from repro.analysis.detection import (
    FLAGS,
    FORGED_EDGE,
    MOAS_CONFLICT,
    ORIGIN_CHANGE,
    SUBPREFIX_DEAGG,
    SUBPREFIX_FOREIGN,
    VALLEY_VIOLATION,
    ColumnDetector,
    detect_records_columnar,
    detection_digest,
    path_flags,
    stability_scores,
)
from repro.bgp.attributes import AsPath, PathAttributes
from repro.collector.record import UpdateKind, UpdateRecord
from repro.net.prefix import Prefix
from repro.topology.relationships import AsRelationships
from repro.verify.reference import reference_detect

PEER_A = (0xC0000001, 64)
PEER_B = (0xC0000002, 65)
PEER_C = (0xC0000003, 66)

P24 = Prefix(10 << 24, 24)
P26 = Prefix(10 << 24, 26)
P16 = Prefix(10 << 24, 16)


def ann(time, peer, prefix, path):
    peer_id, peer_asn = peer
    return UpdateRecord(
        time, peer_id, peer_asn, prefix, UpdateKind.ANNOUNCE,
        PathAttributes(as_path=AsPath(tuple(path)), next_hop=peer_id),
    )


def wd(time, peer, prefix):
    peer_id, peer_asn = peer
    return UpdateRecord(
        time, peer_id, peer_asn, prefix, UpdateKind.WITHDRAW
    )


def feed_all(records, topology=None):
    """Flags from the detection tier (the unit under test here),
    which must also be the reference oracle's verdict."""
    flags = detect_records_columnar(records, topology).flags
    edges = None if topology is None else topology.edges()
    assert flags == reference_detect(records, edges)
    return flags


def topology():
    """transit 900 serves customers 10 and 20; 10 serves 1, 20 serves
    2; 10 peers with 11."""
    rel = AsRelationships()
    rel.add_provider(900, 10)
    rel.add_provider(900, 20)
    rel.add_provider(10, 1)
    rel.add_provider(20, 2)
    rel.add_peer(10, 11)
    return rel


class TestFlags:
    def test_canonical_order_and_names(self):
        assert [bit for bit, _ in FLAGS] == [1, 2, 4, 8, 16, 32]
        assert dict(FLAGS)[MOAS_CONFLICT] == "moas_conflict"
        assert dict(FLAGS)[FORGED_EDGE] == "forged_edge"

    def test_relationships_hops(self):
        rel = topology()
        assert rel.hop(1, 10) == "up"
        assert rel.hop(10, 1) == "down"
        assert rel.hop(10, 11) == "peer" == rel.hop(11, 10)
        assert rel.hop(1, 2) is None
        assert len(rel) == 10
        assert rel.edges()[(1, 10)] == "up"


class TestPathFlags:
    def test_customer_chain_is_clean(self):
        # origin 1 exports up to 10, 10 exports to the observer (peer).
        assert path_flags((10, 1), topology()) == 0

    def test_prepending_is_collapsed(self):
        assert path_flags((10, 10, 1, 1, 1), topology()) == 0

    def test_provider_learned_route_is_a_leak(self):
        # 10 learned 2's route via its provider 900, exported it to us.
        assert path_flags((10, 900, 20, 2), topology()) == VALLEY_VIOLATION

    def test_peer_learned_route_is_a_leak(self):
        # 10 learned the route from its peer 11 and exported to us.
        assert path_flags((10, 11), topology()) == VALLEY_VIOLATION

    def test_undeclared_adjacency_is_forged(self):
        assert path_flags((10, 999), topology()) == FORGED_EDGE

    def test_forged_paths_are_not_valley_checked(self):
        # (10, 900, 999): the 999 edge is undeclared — forged wins even
        # though 900 -> 10 alone would read as a valley.
        assert path_flags((10, 900, 999), topology()) == FORGED_EDGE

    def test_short_or_untopologied_paths_are_clean(self):
        assert path_flags((10,), topology()) == 0
        assert path_flags((), topology()) == 0
        assert path_flags((10, 999), None) == 0


class TestMoasAndOriginChange:
    def test_second_origin_trips_moas(self):
        flags = feed_all([
            ann(0.0, PEER_A, P24, (64, 7)),
            ann(1.0, PEER_B, P24, (65, 8)),
        ])
        assert flags[0] == 0
        assert flags[1] & MOAS_CONFLICT

    def test_same_origin_from_two_peers_is_not_moas(self):
        flags = feed_all([
            ann(0.0, PEER_A, P24, (64, 7)),
            ann(1.0, PEER_B, P24, (65, 7)),
        ])
        assert flags == [0, 0]

    def test_withdrawal_retires_the_conflicting_origin(self):
        flags = feed_all([
            ann(0.0, PEER_A, P24, (64, 7)),
            wd(1.0, PEER_A, P24),
            ann(2.0, PEER_B, P24, (65, 8)),
        ])
        # origin 7 is gone by the time 8 announces: no concurrency...
        assert not flags[2] & MOAS_CONFLICT
        # ...but the origin still changed relative to history.
        assert flags[2] & ORIGIN_CHANGE

    def test_origin_change_persists_across_withdrawal(self):
        flags = feed_all([
            ann(0.0, PEER_A, P24, (64, 7)),
            wd(1.0, PEER_A, P24),
            ann(2.0, PEER_A, P24, (64, 7)),
            ann(3.0, PEER_A, P24, (64, 9)),
        ])
        assert flags[2] == 0  # same origin re-announced: quiet
        assert flags[3] & ORIGIN_CHANGE

    def test_empty_path_origin_falls_back_to_peer_asn(self):
        flags = feed_all([
            ann(0.0, PEER_A, P24, ()),
            ann(1.0, PEER_B, P24, ()),
        ])
        # origins are the two peer ASNs (64 vs 65): a real conflict.
        assert flags[1] & MOAS_CONFLICT

    def test_moas_prefix_set_is_cumulative(self):
        result = detect_records_columnar([
            ann(0.0, PEER_A, P24, (64, 7)),
            ann(1.0, PEER_B, P24, (65, 8)),
            wd(2.0, PEER_B, P24),
        ])
        assert result.detector.moas_prefixes == {
            (P24.network, P24.length)
        }


class TestSubprefix:
    def test_foreign_subprefix(self):
        flags = feed_all([
            ann(0.0, PEER_A, P24, (64, 7)),
            ann(1.0, PEER_B, P26, (65, 8)),
        ])
        assert flags[1] & SUBPREFIX_FOREIGN
        assert not flags[1] & SUBPREFIX_DEAGG

    def test_deaggregation_by_the_covering_origin(self):
        flags = feed_all([
            ann(0.0, PEER_A, P24, (64, 7)),
            ann(1.0, PEER_A, P26, (64, 7)),
        ])
        assert flags[1] & SUBPREFIX_DEAGG
        assert not flags[1] & SUBPREFIX_FOREIGN

    def test_longest_cover_wins(self):
        # /16 announced by origin 7, /24 by origin 8; a /26 from origin
        # 8 is judged against the /24 (deagg), not the /16 (foreign).
        flags = feed_all([
            ann(0.0, PEER_A, P16, (64, 7)),
            ann(1.0, PEER_B, P24, (65, 8)),
            ann(2.0, PEER_C, P26, (66, 8)),
        ])
        assert flags[2] & SUBPREFIX_DEAGG
        assert not flags[2] & SUBPREFIX_FOREIGN

    def test_withdrawn_cover_stops_flagging(self):
        flags = feed_all([
            ann(0.0, PEER_A, P24, (64, 7)),
            wd(1.0, PEER_A, P24),
            ann(2.0, PEER_B, P26, (65, 8)),
        ])
        assert flags[2] == 0


class TestStability:
    def test_counters_and_scores(self):
        records = [
            ann(0.0, PEER_A, P24, (64, 7)),    # NEW_ANNOUNCE
            ann(1.0, PEER_A, P24, (64, 7)),    # AADUP (pathological)
            wd(2.0, PEER_A, P24),              # PLAIN_WITHDRAW
            ann(3.0, PEER_A, P24, (64, 9)),    # WADIFF (instability)
        ]
        result = detect_records_columnar(records)
        stability = result.detector.stability()
        p = (P24.network, P24.length)
        assert stability[p] == (4, 1, 1)
        scores = stability_scores(stability)
        assert scores[p] == pytest.approx(1.0 - 2 / 4)

    def test_untouched_prefix_scores_one(self):
        result = detect_records_columnar([ann(0.0, PEER_A, P24, (64, 7))])
        scores = stability_scores(result.detector.stability())
        assert scores[(P24.network, P24.length)] == 1.0


class TestTierEquivalence:
    def records(self):
        rel_records = [
            ann(0.0, PEER_A, P16, (10, 1)),
            ann(1.0, PEER_B, P24, (10, 900, 20, 2)),   # leak
            ann(2.0, PEER_C, P26, (10, 999)),          # forged
            wd(3.0, PEER_A, P16),
            ann(4.0, PEER_A, P24, (20, 2)),            # MOAS vs leak
            ann(5.0, PEER_A, P24, (10, 1)),
        ]
        return rel_records

    def test_stream_equals_columnar_with_batch_cuts(self):
        records = self.records()
        topo = topology()
        whole = detect_records_columnar(records, topo)
        for boundaries in ((1,), (3,), (1, 2, 3, 4, 5)):
            cut = detect_records_columnar(records, topo, boundaries)
            assert cut.flags == whole.flags, boundaries
            assert (
                cut.detector.state_digest()
                == whole.detector.state_digest()
            )
            assert cut.counts == whole.counts

    def test_both_tiers_match_the_reference_oracle(self):
        records = self.records()
        topo = topology()
        expected = reference_detect(records, topo.edges())
        assert detect_records_columnar(records, topo).flags == expected
        assert (
            detect_records_columnar(records, topo, (2,)).flags == expected
        )

    def test_detection_digest_requires_alignment(self):
        records = self.records()
        with pytest.raises(ValueError):
            detection_digest(records, [0])

    def test_column_detector_attr_cache_survives_table_growth(self):
        # Same detector, two batches, second batch interns new paths.
        topo = topology()
        records = self.records()
        expected = reference_detect(records, topo.edges())
        columnar = detect_records_columnar(records, topo, (2, 4))
        assert columnar.flags == expected

    def test_all_withdraw_first_batch(self):
        # First batch carries no announcements, so the attribute table
        # is still empty when the columnar detector sees it.
        records = [
            wd(0.0, PEER_A, P24),
            wd(0.5, PEER_B, P24),
            ann(1.0, PEER_A, P24, (64, 7)),
        ]
        whole = detect_records_columnar(records)
        columnar = detect_records_columnar(records, None, (2,))
        assert columnar.flags == whole.flags == reference_detect(records, None)
        assert (
            columnar.detector.state_digest()
            == whole.detector.state_digest()
        )

    def test_empty_stream(self):
        result = detect_records_columnar([])
        assert result.flags == []
        assert (
            result.detector.state_digest() == ColumnDetector().state_digest()
        )


class TestProperties:
    def test_valley_free_paths_are_never_flagged(self):
        # Seeded random provider hierarchies; every strictly-ascending
        # customer chain is valley-free and must stay unflagged by both
        # the detector and the oracle.
        for seed in range(20):
            rng = random.Random(seed)
            rel = AsRelationships()
            # a random forest: ASN i's provider is some smaller ASN
            parents = {}
            for asn in range(2, 40):
                parent = rng.randrange(1, asn)
                parents[asn] = parent
                rel.add_provider(parent, asn)
            for _ in range(30):
                origin = rng.randrange(2, 40)
                chain = [origin]
                while chain[-1] in parents and rng.random() < 0.8:
                    chain.append(parents[chain[-1]])
                path = tuple(reversed(chain))  # sender-first
                assert path_flags(path, rel) == 0, (seed, path)
                record = ann(0.0, PEER_A, P24, path)
                assert reference_detect([record], rel.edges()) == [0]

    def test_moas_detection_is_injection_order_independent(self):
        # The same (peer -> origin) assignments in any arrival order
        # yield the same cumulative MOAS prefix set and the same
        # per-prefix event totals.
        peers = [((0xC0000000 + i), 100 + i) for i in range(6)]
        base = [
            ann(float(i), peer, P24, (peer[1], 7 if i % 2 else 8))
            for i, peer in enumerate(peers)
        ]
        baseline = detect_records_columnar(base).detector
        for seed in range(10):
            rng = random.Random(seed)
            shuffled = base[:]
            rng.shuffle(shuffled)
            shuffled = [
                UpdateRecord(
                    float(i), r.peer_id, r.peer_asn, r.prefix, r.kind,
                    r.attributes,
                )
                for i, r in enumerate(shuffled)
            ]
            detector = detect_records_columnar(shuffled).detector
            assert detector.moas_prefixes == baseline.moas_prefixes
            assert (
                detector.stability() == baseline.stability()
            )

    def test_leak_classifier_never_flags_declared_customer_routes(self):
        # Every path built purely from add_provider(parent, child)
        # climbs; appending the observer's peer hop keeps it legal.
        rel = topology()
        for path in ((10, 1), (20, 2), (900, 10, 1), (900, 20, 2)):
            assert path_flags(path, rel) == 0, path
