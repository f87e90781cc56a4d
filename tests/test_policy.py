"""Unit tests for routing policy machinery."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.policy import (
    Action,
    DENY_ALL,
    MatchCondition,
    PERMIT_ALL,
    PolicyTerm,
    RouteMap,
)
from repro.net.prefix import Prefix

P = Prefix.parse


def attrs(path=(701,), **kwargs):
    return PathAttributes(as_path=AsPath(path), **kwargs)


class TestMatchCondition:
    def test_empty_matches_everything(self):
        cond = MatchCondition()
        assert cond.matches(P("10.0.0.0/8"), attrs())

    def test_prefix_list_with_ranges(self):
        cond = MatchCondition(prefixes=(P("10.0.0.0/8"),), ge=16, le=24)
        assert cond.matches(P("10.1.0.0/16"), attrs())
        assert cond.matches(P("10.1.2.0/24"), attrs())
        assert not cond.matches(P("10.0.0.0/8"), attrs())      # too short
        assert not cond.matches(P("10.1.2.0/25"), attrs())     # too long
        assert not cond.matches(P("11.0.0.0/16"), attrs())     # outside

    def test_as_on_path(self):
        cond = MatchCondition(as_on_path=1239)
        assert cond.matches(P("10.0.0.0/8"), attrs((701, 1239)))
        assert not cond.matches(P("10.0.0.0/8"), attrs((701,)))

    def test_origin_as(self):
        cond = MatchCondition(origin_as=3561)
        assert cond.matches(P("10.0.0.0/8"), attrs((701, 3561)))
        assert not cond.matches(P("10.0.0.0/8"), attrs((3561, 701)))

    def test_community(self):
        cond = MatchCondition(community=0xFF)
        assert cond.matches(
            P("10.0.0.0/8"), attrs(communities=frozenset({0xFF}))
        )
        assert not cond.matches(P("10.0.0.0/8"), attrs())

    def test_conjunction_of_conditions(self):
        cond = MatchCondition(prefixes=(P("10.0.0.0/8"),), origin_as=9)
        assert cond.matches(P("10.1.0.0/16"), attrs((7, 9)))
        assert not cond.matches(P("10.1.0.0/16"), attrs((7, 8)))


class TestAction:
    def test_set_attributes(self):
        action = Action(set_local_pref=200, set_med=5)
        out = action.apply(attrs())
        assert out.local_pref == 200
        assert out.med == 5

    def test_add_communities(self):
        out = Action(add_communities=(1, 2)).apply(
            attrs(communities=frozenset({3}))
        )
        assert out.communities == frozenset({1, 2, 3})

    def test_strip_then_add(self):
        out = Action(strip_communities=True, add_communities=(9,)).apply(
            attrs(communities=frozenset({1, 2}))
        )
        assert out.communities == frozenset({9})

    def test_prepend(self):
        out = Action(prepend=2, prepend_asn=7).apply(attrs((1,)))
        assert tuple(out.as_path) == (7, 7, 1)

    def test_noop_returns_equal(self):
        a = attrs()
        assert Action().apply(a) == a


class TestRouteMap:
    def test_first_match_wins(self):
        rm = RouteMap(
            [
                PolicyTerm(
                    MatchCondition(prefixes=(P("10.0.0.0/8"),)),
                    permit=False,
                ),
                PolicyTerm(),  # permit rest
            ]
        )
        assert rm.evaluate(P("10.1.0.0/16"), attrs()) is None
        assert rm.evaluate(P("11.0.0.0/8"), attrs()) is not None

    def test_no_match_denies(self):
        rm = RouteMap(
            [PolicyTerm(MatchCondition(prefixes=(P("10.0.0.0/8"),)))]
        )
        assert rm.evaluate(P("11.0.0.0/8"), attrs()) is None

    def test_permit_applies_action(self):
        rm = RouteMap([PolicyTerm(action=Action(set_local_pref=77))])
        out = rm.evaluate(P("10.0.0.0/8"), attrs())
        assert out.local_pref == 77

    def test_evaluation_counter(self):
        rm = RouteMap([PolicyTerm(permit=False), PolicyTerm()])
        # First term matches everything (deny), so 1 evaluation per call.
        rm.evaluate(P("10.0.0.0/8"), attrs())
        assert rm.evaluations == 1

    def test_permit_all_and_deny_all(self):
        assert PERMIT_ALL.evaluate(P("10.0.0.0/8"), attrs()) is not None
        assert DENY_ALL.evaluate(P("10.0.0.0/8"), attrs()) is None
