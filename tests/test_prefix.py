"""Unit and property tests for repro.net.prefix."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.prefix import Prefix, PrefixError


def prefixes(min_length=0, max_length=32):
    """Hypothesis strategy producing valid prefixes."""
    return st.builds(
        lambda addr, length: Prefix(
            addr & ((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF)
            if length
            else 0,
            length,
        ),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=min_length, max_value=max_length),
    )


class TestParsing:
    def test_parse_roundtrip(self):
        p = Prefix.parse("192.42.113.0/24")
        assert str(p) == "192.42.113.0/24"
        assert p.network == (192 << 24) | (42 << 16) | (113 << 8)
        assert p.length == 24

    def test_parse_bare_address_is_host_route(self):
        p = Prefix.parse("10.1.2.3")
        assert p.length == 32
        assert str(p) == "10.1.2.3/32"

    def test_parse_zero_prefix(self):
        p = Prefix.parse("0.0.0.0/0")
        assert p.length == 0
        assert p.broadcast == 0xFFFFFFFF

    def test_parse_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.1/24")

    @pytest.mark.parametrize(
        "bad",
        ["10.0.0/24", "10.0.0.256/24", "10.0.0.0/33", "10.0.0.0/x", "a.b.c.d/8"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(PrefixError):
            Prefix.parse(bad)


class TestRelations:
    def test_covers_more_specific(self):
        assert Prefix.parse("10.0.0.0/8").covers(Prefix.parse("10.1.0.0/16"))

    def test_does_not_cover_less_specific(self):
        assert not Prefix.parse("10.1.0.0/16").covers(Prefix.parse("10.0.0.0/8"))

    def test_covers_self(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.covers(p)

    def test_contains_operator(self):
        assert Prefix.parse("10.1.0.0/16") in Prefix.parse("10.0.0.0/8")
        assert Prefix.parse("11.0.0.0/8") not in Prefix.parse("10.0.0.0/8")

    def test_contains_address(self):
        p = Prefix.parse("10.0.0.0/8")
        assert (10 << 24) + 5 in p
        assert (11 << 24) not in p

    def test_ordering_network_major(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.0.0.0/16")
        c = Prefix.parse("10.1.0.0/16")
        assert sorted([c, b, a]) == [a, b, c]


class TestArithmetic:
    def test_subnets_halves(self):
        halves = list(Prefix.parse("10.0.0.0/8").subnets())
        assert [str(h) for h in halves] == ["10.0.0.0/9", "10.128.0.0/9"]

    def test_subnets_count(self):
        assert len(list(Prefix.parse("10.0.0.0/8").subnets(12))) == 16

    def test_broadcast(self):
        p = Prefix.parse("10.0.0.0/24")
        assert p.broadcast == p.network + 255


class TestProperties:
    @given(prefixes())
    def test_str_parse_roundtrip(self, p):
        assert Prefix.parse(str(p)) == p

    @given(prefixes(max_length=31))
    def test_subnet_halves_cover_exactly(self, p):
        left, right = p.subnets()
        assert p.covers(left) and p.covers(right)
        assert (left.network, right.broadcast) == (p.network, p.broadcast)
        assert left.broadcast + 1 == right.network

    @given(prefixes(), prefixes())
    def test_covers_antisymmetric_unless_equal(self, a, b):
        if a.covers(b) and b.covers(a):
            assert a == b

    @given(prefixes())
    def test_hashable_and_interchangeable_with_tuple(self, p):
        assert hash(p) == hash((p.network, p.length))
        assert {p: 1}[Prefix(p.network, p.length)] == 1
