"""Unit and property tests for the taxonomy and the classifier.

These test the paper's central definitions, so they are deliberately
exhaustive about sequence semantics.  Every sequence goes through
:func:`tests.helpers.labels`, which runs the production
``ColumnClassifier`` and also holds it to the ``reference_classify``
oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.collector.record import UpdateKind, UpdateRecord
from repro.core.columns import ColumnClassifier
from repro.core.taxonomy import (
    FIGURE2_CATEGORIES,
    INSTABILITY_CATEGORIES,
    PATHOLOGICAL_CATEGORIES,
    UpdateCategory,
)
from repro.net.prefix import Prefix

from .helpers import labels

P = Prefix.parse
PFX = P("192.42.113.0/24")

ATTRS_A = PathAttributes(as_path=AsPath((701, 3561)), next_hop=1)
ATTRS_B = PathAttributes(as_path=AsPath((1239, 3561)), next_hop=2)
#: Same forwarding tuple as ATTRS_A, different policy attributes.
ATTRS_A_POLICY = PathAttributes(
    as_path=AsPath((701, 3561)), next_hop=1, med=42,
    communities=frozenset({0xFF}),
)


def A(time, attrs=ATTRS_A, peer=1, asn=701, prefix=PFX):
    return UpdateRecord(time, peer, asn, prefix, UpdateKind.ANNOUNCE, attrs)


def W(time, peer=1, asn=701, prefix=PFX):
    return UpdateRecord(time, peer, asn, prefix, UpdateKind.WITHDRAW)


def categories(records):
    return [category for category, _ in labels(records)]


class TestSequences:
    def test_first_announce_is_new(self):
        assert categories([A(0)]) == [UpdateCategory.NEW_ANNOUNCE]

    def test_first_withdraw_is_wwdup(self):
        """A withdrawal from a peer that never announced the prefix is
        the paper's signature pathology."""
        assert categories([W(0)]) == [UpdateCategory.WWDUP]

    def test_aadup_identical_announce(self):
        cats = categories([A(0), A(1)])
        assert cats == [UpdateCategory.NEW_ANNOUNCE, UpdateCategory.AADUP]

    def test_aadup_policy_change_flagged(self):
        updates = labels([A(0), A(1, ATTRS_A_POLICY)])
        assert updates[1] == (UpdateCategory.AADUP, True)

    def test_pure_aadup_not_policy_flagged(self):
        updates = labels([A(0), A(1)])
        assert updates[1] == (UpdateCategory.AADUP, False)

    def test_aadiff_different_path(self):
        cats = categories([A(0), A(1, ATTRS_B)])
        assert cats[1] is UpdateCategory.AADIFF

    def test_aadiff_nexthop_only_change(self):
        changed = PathAttributes(as_path=AsPath((701, 3561)), next_hop=9)
        cats = categories([A(0), A(1, changed)])
        assert cats[1] is UpdateCategory.AADIFF

    def test_plain_withdraw_of_reachable_route(self):
        cats = categories([A(0), W(1)])
        assert cats[1] is UpdateCategory.PLAIN_WITHDRAW

    def test_wadup_reannounce_same_route(self):
        cats = categories([A(0), W(1), A(2)])
        assert cats[2] is UpdateCategory.WADUP

    def test_wadiff_reannounce_different_route(self):
        cats = categories([A(0), W(1), A(2, ATTRS_B)])
        assert cats[2] is UpdateCategory.WADIFF

    def test_wwdup_repeated_withdrawals(self):
        cats = categories([A(0), W(1), W(2), W(3)])
        assert cats[1] is UpdateCategory.PLAIN_WITHDRAW
        assert cats[2] is UpdateCategory.WWDUP
        assert cats[3] is UpdateCategory.WWDUP

    def test_wadup_policy_variant_is_wadiff_on_tuple_change_only(self):
        """Re-announcement with the same forwarding tuple but different
        policy attributes is still a WADup per the paper's tuple rule."""
        cats = categories([A(0), W(1), A(2, ATTRS_A_POLICY)])
        assert cats[2] is UpdateCategory.WADUP

    def test_oscillation_sequence(self):
        """The paper's A1, A2, A1 oscillation: AADIFF then AADIFF."""
        cats = categories([A(0), A(1, ATTRS_B), A(2, ATTRS_A)])
        assert cats == [
            UpdateCategory.NEW_ANNOUNCE,
            UpdateCategory.AADIFF,
            UpdateCategory.AADIFF,
        ]

    def test_full_flap_cycle(self):
        """W-A-W-A oscillation of the same route: WADup each time."""
        cats = categories([A(0), W(1), A(2), W(3), A(4)])
        assert cats[2] is UpdateCategory.WADUP
        assert cats[4] is UpdateCategory.WADUP


class TestStateIsolation:
    def test_peers_tracked_independently(self):
        cats = categories([A(0, peer=1), W(1, peer=2)])
        # Peer 2 never announced: its withdrawal is WWDup even though
        # peer 1 has the route up.
        assert cats[1] is UpdateCategory.WWDUP

    def test_prefixes_tracked_independently(self):
        other = P("10.0.0.0/8")
        cats = categories([A(0), A(1, prefix=other), A(2)])
        assert cats == [
            UpdateCategory.NEW_ANNOUNCE,
            UpdateCategory.NEW_ANNOUNCE,
            UpdateCategory.AADUP,
        ]

    def test_state_persists_across_classify_calls(self):
        clf = ColumnClassifier()
        labels([A(0)], clf)
        ((second, _),) = labels([A(1)], clf)
        assert second is UpdateCategory.AADUP


class TestTaxonomySets:
    def test_instability_and_pathology_disjoint(self):
        assert not (INSTABILITY_CATEGORIES & PATHOLOGICAL_CATEGORIES)

    def test_instability_membership(self):
        assert UpdateCategory.WADUP in INSTABILITY_CATEGORIES
        assert UpdateCategory.AADIFF in INSTABILITY_CATEGORIES
        assert UpdateCategory.AADUP not in INSTABILITY_CATEGORIES

    def test_pathology_membership(self):
        assert UpdateCategory.WWDUP in PATHOLOGICAL_CATEGORIES
        assert UpdateCategory.AADUP in PATHOLOGICAL_CATEGORIES
        assert UpdateCategory.WADIFF not in PATHOLOGICAL_CATEGORIES

    def test_uncategorized(self):
        assert UpdateCategory.NEW_ANNOUNCE.label == "Uncategorized"
        assert UpdateCategory.PLAIN_WITHDRAW.label == "Uncategorized"

    def test_figure2_excludes_wwdup(self):
        assert UpdateCategory.WWDUP not in FIGURE2_CATEGORIES

    def test_labels_match_paper(self):
        assert UpdateCategory.AADUP.label == "AA Duplicate"
        assert UpdateCategory.WADIFF.label == "WA Different"


# -- property-based: classifier invariants ---------------------------------

events = st.lists(
    st.tuples(
        st.sampled_from(["A1", "A2", "W"]),
        st.integers(1, 3),  # peer id
    ),
    max_size=40,
)


@settings(max_examples=100)
@given(events)
def test_classifier_invariants(seq):
    """Category must be consistent with a simple reachability model."""
    attrs = {"A1": ATTRS_A, "A2": ATTRS_B}
    records = []
    for i, (op, peer) in enumerate(seq):
        if op == "W":
            records.append(W(float(i), peer=peer))
        else:
            records.append(A(float(i), attrs[op], peer=peer))
    reachable = {}
    announced_ever = set()
    for record, cat in zip(records, categories(records)):
        key = (record.peer_id, record.prefix)
        if record.kind is UpdateKind.WITHDRAW:
            if reachable.get(key):
                assert cat is UpdateCategory.PLAIN_WITHDRAW
            else:
                assert cat is UpdateCategory.WWDUP
            reachable[key] = False
        else:
            if key not in announced_ever:
                assert cat is UpdateCategory.NEW_ANNOUNCE
            elif reachable.get(key):
                assert cat in (UpdateCategory.AADUP, UpdateCategory.AADIFF)
            else:
                assert cat in (UpdateCategory.WADUP, UpdateCategory.WADIFF)
            reachable[key] = True
            announced_ever.add(key)


@settings(max_examples=50)
@given(events)
def test_every_update_gets_exactly_one_category(seq):
    records = []
    for i, (op, peer) in enumerate(seq):
        if op == "W":
            records.append(W(float(i), peer=peer))
        else:
            records.append(A(float(i), ATTRS_A if op == "A1" else ATTRS_B, peer=peer))
    cats = categories(records)
    assert len(cats) == len(records)
    for category in cats:
        assert isinstance(category, UpdateCategory)
        # Exactly one of the three super-classes.
        flags = [
            category in INSTABILITY_CATEGORIES,
            category in PATHOLOGICAL_CATEGORIES,
            category.label == "Uncategorized",
        ]
        assert sum(flags) == 1
