"""Tests for the AS-path regular expression engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.aspath_regex import AsPathRegexError, compile_regex
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.policy import MatchCondition
from repro.net.prefix import Prefix


class TestBasicMatching:
    def test_literal_asn_unanchored(self):
        regex = compile_regex("1239")
        assert regex.search((701, 1239, 3561))
        assert not regex.search((701, 3561))

    def test_boundary_form(self):
        regex = compile_regex("_701_")
        assert regex.search((701,))
        assert regex.search((7018, 701, 1239))
        assert not regex.search((7018, 1239))

    def test_anchored_start(self):
        regex = compile_regex("^701")
        assert regex.search((701, 1239))
        assert not regex.search((1239, 701))

    def test_anchored_end(self):
        regex = compile_regex("3561$")
        assert regex.search((701, 3561))
        assert not regex.search((3561, 701))

    def test_fully_anchored(self):
        regex = compile_regex("^701 1239$")
        assert regex.search((701, 1239))
        assert not regex.search((701, 1239, 3561))
        assert not regex.search((7, 701, 1239))

    def test_dot_any(self):
        regex = compile_regex("^701 . 3561$")
        assert regex.search((701, 99, 3561))
        assert not regex.search((701, 3561))

    def test_empty_pattern_matches_everything(self):
        regex = compile_regex("")
        assert regex.search(())
        assert regex.search((1, 2, 3))


class TestQuantifiers:
    def test_star(self):
        regex = compile_regex("^701 1239* 3561$")
        assert regex.search((701, 3561))
        assert regex.search((701, 1239, 3561))
        assert regex.search((701, 1239, 1239, 1239, 3561))
        assert not regex.search((701, 7, 3561))

    def test_plus(self):
        regex = compile_regex("^701+$")
        assert regex.search((701,))
        assert regex.search((701, 701, 701))
        assert not regex.search(())

    def test_question(self):
        regex = compile_regex("^701 1239? 3561$")
        assert regex.search((701, 3561))
        assert regex.search((701, 1239, 3561))
        assert not regex.search((701, 1239, 1239, 3561))

    def test_dot_star_prefix(self):
        """The classic ^.* 3561$ — 'whatever, originated by 3561'."""
        regex = compile_regex("^.* 3561$")
        assert regex.search((3561,))
        assert regex.search((1, 2, 3, 3561))
        assert not regex.search((3561, 1))

    def test_prepending_detector(self):
        """Detect ASPATH prepending: the same AS twice in a row."""
        regex = compile_regex("701 701")
        assert regex.search((701, 701, 1239))
        assert not regex.search((701, 1239, 701))


class TestSetsAndAlternation:
    def test_as_set(self):
        regex = compile_regex("^[701 1239 3561]$")
        for asn in (701, 1239, 3561):
            assert regex.search((asn,))
        assert not regex.search((7018,))

    def test_alternation(self):
        regex = compile_regex("^(701 1239|3561)$")
        assert regex.search((701, 1239))
        assert regex.search((3561,))
        assert not regex.search((701,))

    def test_group_with_quantifier(self):
        regex = compile_regex("^(701 1239)+$")
        assert regex.search((701, 1239))
        assert regex.search((701, 1239, 701, 1239))
        assert not regex.search((701, 1239, 701))


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        ["(701", "[701", "[]", "[x]", "701)", "70a1", "&"],
    )
    def test_malformed_patterns(self, bad):
        with pytest.raises(AsPathRegexError):
            compile_regex(bad)


class TestPolicyIntegration:
    def test_match_condition_uses_regex(self):
        condition = MatchCondition(as_path_regex="^701 .* 3561$")
        prefix = Prefix.parse("10.0.0.0/8")
        yes = PathAttributes(as_path=AsPath((701, 9, 3561)))
        no = PathAttributes(as_path=AsPath((1239, 3561)))
        assert condition.matches(prefix, yes)
        assert not condition.matches(prefix, no)

    def test_regex_composes_with_other_conditions(self):
        condition = MatchCondition(
            prefixes=(Prefix.parse("10.0.0.0/8"),),
            as_path_regex="_1239_",
        )
        inside = Prefix.parse("10.1.0.0/16")
        outside = Prefix.parse("11.0.0.0/8")
        attrs = PathAttributes(as_path=AsPath((701, 1239)))
        assert condition.matches(inside, attrs)
        assert not condition.matches(outside, attrs)


# -- property-based: engine never explodes, semantics sane -------------------

paths = st.lists(st.integers(1, 65535), max_size=12).map(tuple)


@settings(max_examples=80)
@given(paths, st.integers(1, 65535))
def test_literal_search_equals_membership(path, asn):
    assert compile_regex(str(asn)).search(path) == (asn in path)


@settings(max_examples=60)
@given(paths)
def test_dot_star_matches_everything(path):
    assert compile_regex(".*").search(path)
    assert compile_regex("^.*$").search(path)


@settings(max_examples=60)
@given(paths)
def test_anchored_any_plus(path):
    # ^.+$ matches exactly the non-empty paths.
    assert compile_regex("^.+$").search(path) == (len(path) > 0)


@settings(max_examples=40)
@given(st.lists(st.integers(1, 100), min_size=1, max_size=6).map(tuple))
def test_exact_path_pattern_matches_itself(path):
    pattern = "^" + " ".join(str(a) for a in path) + "$"
    regex = compile_regex(pattern)
    assert regex.search(path)
    assert not regex.search(path + (99999,))
