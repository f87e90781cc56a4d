"""Unit tests for the RIBs and decision process."""

import pytest

from repro.bgp.attributes import (
    AsPath,
    Origin,
    PathAttributes,
    attribute_tuple,
)
from repro.bgp.rib import (
    AdjRibOut,
    ChangeKind,
    LocRib,
    Route,
    best_route,
)
from repro.net.prefix import Prefix

P = Prefix.parse


def route(prefix, path, peer=1, **kwargs):
    return Route(P(prefix), PathAttributes(as_path=AsPath(path), **kwargs), peer)


class TestDecisionProcess:
    def test_empty_is_none(self):
        assert best_route([]) is None

    def test_prefers_higher_local_pref(self):
        a = route("10.0.0.0/8", (1, 2, 3), peer=1, local_pref=200)
        b = route("10.0.0.0/8", (4,), peer=2, local_pref=100)
        assert best_route([a, b]) == a

    def test_prefers_shorter_as_path(self):
        a = route("10.0.0.0/8", (1, 2, 3), peer=1)
        b = route("10.0.0.0/8", (4, 5), peer=2)
        assert best_route([a, b]) == b

    def test_prepending_deprefs_route(self):
        a = route("10.0.0.0/8", (7, 7, 7, 1), peer=1)
        b = route("10.0.0.0/8", (8, 1), peer=2)
        assert best_route([a, b]) == b

    def test_prefers_lower_origin(self):
        a = route("10.0.0.0/8", (1,), peer=1, origin=Origin.INCOMPLETE)
        b = route("10.0.0.0/8", (2,), peer=2, origin=Origin.IGP)
        assert best_route([a, b]) == b

    def test_med_compared_within_same_neighbor_as(self):
        a = route("10.0.0.0/8", (7, 1), peer=1, med=50)
        b = route("10.0.0.0/8", (7, 2), peer=2, med=10)
        assert best_route([a, b]) == b

    def test_med_ignored_across_neighbor_ases(self):
        # Different neighbor AS: MED must not decide; peer id breaks tie.
        a = route("10.0.0.0/8", (7, 1), peer=1, med=500)
        b = route("10.0.0.0/8", (8, 2), peer=2, med=1)
        assert best_route([a, b]) == a  # lower peer id wins

    def test_peer_id_is_final_tiebreak(self):
        a = route("10.0.0.0/8", (7, 1), peer=9)
        b = route("10.0.0.0/8", (8, 1), peer=3)
        assert best_route([a, b]) == b

    def test_default_local_pref_is_100(self):
        a = route("10.0.0.0/8", (1, 2), peer=1, local_pref=None)
        b = route("10.0.0.0/8", (3,), peer=2, local_pref=99)
        # a has implicit 100 > 99 despite longer path.
        assert best_route([a, b]) == a


class TestLocRib:
    def test_first_announce(self):
        rib = LocRib()
        change = rib.apply_announce(
            1, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((7,)))
        )
        assert change.kind is ChangeKind.ANNOUNCE
        assert change.previous is None
        assert len(rib) == 1

    def test_duplicate_announce_is_none_change(self):
        rib = LocRib()
        attrs = PathAttributes(as_path=AsPath((7,)), next_hop=1)
        rib.apply_announce(1, P("10.0.0.0/8"), attrs)
        change = rib.apply_announce(1, P("10.0.0.0/8"), attrs)
        assert change.kind is ChangeKind.NONE

    def test_better_route_replaces(self):
        rib = LocRib()
        rib.apply_announce(
            1, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((7, 8, 9)))
        )
        change = rib.apply_announce(
            2, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((5,)))
        )
        assert change.kind is ChangeKind.ANNOUNCE
        assert change.best.peer == 2
        assert change.previous.peer == 1

    def test_worse_route_no_change(self):
        rib = LocRib()
        rib.apply_announce(
            1, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((5,)))
        )
        change = rib.apply_announce(
            2, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((7, 8, 9)))
        )
        assert change.kind is ChangeKind.NONE
        assert rib.best(P("10.0.0.0/8")).peer == 1

    def test_withdraw_best_falls_back(self):
        rib = LocRib()
        rib.apply_announce(1, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((5,))))
        rib.apply_announce(
            2, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((7, 8)))
        )
        change = rib.apply_withdraw(1, P("10.0.0.0/8"))
        assert change.kind is ChangeKind.ANNOUNCE
        assert change.best.peer == 2

    def test_withdraw_last_route(self):
        rib = LocRib()
        rib.apply_announce(1, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((5,))))
        change = rib.apply_withdraw(1, P("10.0.0.0/8"))
        assert change.kind is ChangeKind.WITHDRAW
        assert len(rib) == 0

    def test_spurious_withdraw_is_none(self):
        """The WWDup precondition: withdrawing a never-announced route."""
        rib = LocRib()
        change = rib.apply_withdraw(1, P("10.0.0.0/8"))
        assert change.kind is ChangeKind.NONE

    def test_withdraw_nonbest_is_none(self):
        rib = LocRib()
        rib.apply_announce(1, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((5,))))
        rib.apply_announce(
            2, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((7, 8)))
        )
        change = rib.apply_withdraw(2, P("10.0.0.0/8"))
        assert change.kind is ChangeKind.NONE
        assert rib.best(P("10.0.0.0/8")).peer == 1

    def test_drop_peer_withdraws_its_routes(self):
        rib = LocRib()
        rib.apply_announce(1, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((5,))))
        rib.apply_announce(1, P("11.0.0.0/8"), PathAttributes(as_path=AsPath((5,))))
        rib.apply_announce(
            2, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((7, 8)))
        )
        changes = rib.drop_peer(1)
        kinds = {c.prefix: c.kind for c in changes}
        assert kinds[P("10.0.0.0/8")] is ChangeKind.ANNOUNCE  # falls back to 2
        assert kinds[P("11.0.0.0/8")] is ChangeKind.WITHDRAW
        assert len(rib) == 1

    def test_policy_only_change_is_announce(self):
        """A MED-only change re-announces (policy fluctuation), visible
        as an update but with an unchanged forwarding tuple."""
        rib = LocRib()
        base = PathAttributes(as_path=AsPath((7,)), next_hop=1, med=10)
        rib.apply_announce(1, P("10.0.0.0/8"), base)
        change = rib.apply_announce(
            1, P("10.0.0.0/8"), PathAttributes(as_path=AsPath((7,)), next_hop=1, med=99)
        )
        assert change.kind is ChangeKind.ANNOUNCE
        assert (
            attribute_tuple(change.best.attributes)[:2]
            == attribute_tuple(base)[:2]
        )


class TestAdjRibOut:
    def test_tracks_advertisements(self):
        out = AdjRibOut()
        attrs = PathAttributes(as_path=AsPath((7,)))
        assert out.advertised(1, P("10.0.0.0/8")) is None
        out.record_announce(1, P("10.0.0.0/8"), attrs)
        assert out.advertised(1, P("10.0.0.0/8")) == attrs
        assert out.record_withdraw(1, P("10.0.0.0/8"))
        assert out.advertised(1, P("10.0.0.0/8")) is None

    def test_withdraw_unadvertised_returns_false(self):
        out = AdjRibOut()
        assert not out.record_withdraw(1, P("10.0.0.0/8"))

    def test_drop_peer(self):
        out = AdjRibOut()
        out.record_announce(1, P("10.0.0.0/8"), PathAttributes())
        out.drop_peer(1)
        assert out.advertised(1, P("10.0.0.0/8")) is None
        assert len(out) == 0

    def test_len_counts_all_peers(self):
        out = AdjRibOut()
        out.record_announce(1, P("10.0.0.0/8"), PathAttributes())
        out.record_announce(2, P("10.0.0.0/8"), PathAttributes())
        assert len(out) == 2
