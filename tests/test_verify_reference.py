"""Unit tests for the naive reference oracle (repro.verify.reference).

The oracle is the ground truth the optimized tiers are held to, so it
gets its own direct tests against hand-worked examples from the
paper's §4.1 definitions — every category, the policy-fluctuation
flag, the Figure 8 bin edges, and the aggregations.
"""


from repro.bgp.attributes import AsPath, PathAttributes
from repro.collector.record import UpdateKind, UpdateRecord
from repro.net.prefix import Prefix
from repro.verify.reference import (
    FIGURE8_EDGES,
    reference_bin_counts,
    reference_classify,
    reference_counts,
    reference_counts_by_peer,
    reference_counts_by_prefix,
    reference_digest,
    reference_interarrival_histogram,
)

PEER = 0xC0000001
ASN = 65001
PREFIX = Prefix(10 << 24, 24)
OTHER_PREFIX = Prefix((10 << 24) + 256, 24)

ATTRS = PathAttributes(as_path=AsPath((ASN, 3000)), next_hop=PEER)
ATTRS_MED = PathAttributes(
    as_path=AsPath((ASN, 3000)), next_hop=PEER, med=20
)
ATTRS_ALT = PathAttributes(
    as_path=AsPath((ASN, 5000, 3000)), next_hop=PEER
)


def announce(time, attrs=ATTRS, prefix=PREFIX, peer=PEER, asn=ASN):
    return UpdateRecord(time, peer, asn, prefix, UpdateKind.ANNOUNCE, attrs)


def withdraw(time, prefix=PREFIX, peer=PEER, asn=ASN):
    return UpdateRecord(time, peer, asn, prefix, UpdateKind.WITHDRAW)


class TestTaxonomy:
    def test_first_announcement_is_new(self):
        assert reference_classify([announce(0.0)]) == [
            ("NEW_ANNOUNCE", False)
        ]

    def test_exact_duplicate_is_aadup_without_policy(self):
        labels = reference_classify([announce(0.0), announce(30.0)])
        assert labels[1] == ("AADUP", False)

    def test_policy_only_change_is_aadup_with_policy(self):
        labels = reference_classify(
            [announce(0.0), announce(30.0, ATTRS_MED)]
        )
        assert labels[1] == ("AADUP", True)

    def test_forwarding_change_is_aadiff(self):
        labels = reference_classify(
            [announce(0.0), announce(30.0, ATTRS_ALT)]
        )
        assert labels[1] == ("AADIFF", False)

    def test_reannounce_same_is_wadup(self):
        labels = reference_classify(
            [announce(0.0), withdraw(10.0), announce(30.0)]
        )
        assert labels == [
            ("NEW_ANNOUNCE", False),
            ("PLAIN_WITHDRAW", False),
            ("WADUP", False),
        ]

    def test_reannounce_policy_change_is_still_wadup(self):
        # WADup/WADiff discriminate on the forwarding tuple only; a
        # MED change across a withdrawal is still WADup.
        labels = reference_classify(
            [announce(0.0), withdraw(10.0), announce(30.0, ATTRS_MED)]
        )
        assert labels[2] == ("WADUP", False)

    def test_reannounce_different_is_wadiff(self):
        labels = reference_classify(
            [announce(0.0), withdraw(10.0), announce(30.0, ATTRS_ALT)]
        )
        assert labels[2] == ("WADIFF", False)

    def test_withdraw_unreachable_is_wwdup(self):
        labels = reference_classify(
            [withdraw(0.0), withdraw(10.0), announce(20.0), withdraw(30.0),
             withdraw(40.0)]
        )
        assert [name for name, _ in labels] == [
            "WWDUP", "WWDUP", "NEW_ANNOUNCE", "PLAIN_WITHDRAW", "WWDUP"
        ]

    def test_state_is_per_peer_and_prefix(self):
        # The same prefix from two peers, and two prefixes from one
        # peer, are independent streams.
        labels = reference_classify(
            [
                announce(0.0),
                announce(1.0, prefix=OTHER_PREFIX),
                announce(2.0, peer=PEER + 1, asn=ASN + 1),
                announce(3.0),
            ]
        )
        assert [name for name, _ in labels] == [
            "NEW_ANNOUNCE", "NEW_ANNOUNCE", "NEW_ANNOUNCE", "AADUP"
        ]


class TestAggregations:
    def test_counts_shape(self):
        counts = reference_counts(
            [announce(0.0), announce(30.0, ATTRS_MED), withdraw(60.0)]
        )
        assert counts == {
            "AADUP": 1,
            "NEW_ANNOUNCE": 1,
            "PLAIN_WITHDRAW": 1,
            "policy_changes": 1,
        }

    def test_counts_by_peer_keys_on_asn(self):
        by_peer = reference_counts_by_peer(
            [announce(0.0), announce(1.0, peer=PEER + 1, asn=ASN + 1)]
        )
        assert set(by_peer) == {ASN, ASN + 1}
        assert by_peer[ASN]["NEW_ANNOUNCE"] == 1

    def test_counts_by_prefix(self):
        by_prefix = reference_counts_by_prefix(
            [announce(0.0), withdraw(1.0), announce(2.0, prefix=OTHER_PREFIX)]
        )
        assert by_prefix == {
            f"{PREFIX.network}/24": 2,
            f"{OTHER_PREFIX.network}/24": 1,
        }

    def test_bin_counts(self):
        counts = reference_bin_counts(
            [announce(0.0), announce(30.0, ATTRS_MED), withdraw(650.0)],
            bin_width=600.0,
        )
        assert counts == [2, 1, 0]

    def test_interarrival_edges_are_inclusive_upper(self):
        # A 30s gap lands in the 30s bin, not the 1m bin.
        histogram = reference_interarrival_histogram(
            [announce(0.0), announce(30.0, ATTRS_MED)]
        )
        assert histogram[FIGURE8_EDGES.index(30.0)] == 1
        assert sum(histogram) == 1

    def test_interarrival_drops_gaps_over_24h(self):
        histogram = reference_interarrival_histogram(
            [announce(0.0), announce(90000.0, ATTRS_MED)]
        )
        assert sum(histogram) == 0

    def test_interarrival_category_filter(self):
        records = [announce(0.0), withdraw(10.0), withdraw(20.0),
                   withdraw(30.0)]
        wwdup_only = reference_interarrival_histogram(records, "WWDUP")
        # Only the 20s→30s gap is between two WWDups.
        assert sum(wwdup_only) == 1

    def test_digest_is_order_sensitive(self):
        a = [announce(0.0), withdraw(10.0)]
        b = [withdraw(0.0), announce(10.0)]
        assert reference_digest(a) != reference_digest(b)
        assert reference_digest(a) == reference_digest(list(a))


def test_figure8_edges_match_analysis_layer():
    from repro.analysis.interarrival import FIGURE8_BINS

    assert tuple(FIGURE8_BINS) == FIGURE8_EDGES
