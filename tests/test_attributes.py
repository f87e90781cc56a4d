"""Unit and property tests for repro.bgp.attributes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AsPath,
    Origin,
    PathAttributes,
    attribute_tuple,
)
from repro.core.columns import AttributeTable


asns = st.integers(min_value=1, max_value=65535)
as_paths = st.builds(AsPath, st.lists(asns, max_size=8))


class TestAsPath:
    def test_origin_and_neighbor(self):
        path = AsPath((701, 1239, 3561))
        assert path.origin_as == 3561
        assert path.neighbor_as == 701

    def test_empty_path(self):
        path = AsPath()
        assert path.origin_as is None
        assert path.neighbor_as is None
        assert path.hop_count == 0

    def test_prepend(self):
        path = AsPath((1239,)).prepend(701)
        assert tuple(path) == (701, 1239)

    def test_prepend_multiple(self):
        path = AsPath((1239,)).prepend(701, 3)
        assert tuple(path) == (701, 701, 701, 1239)

    def test_prepend_zero_rejected(self):
        with pytest.raises(ValueError):
            AsPath((1,)).prepend(2, 0)

    def test_loop_detection(self):
        path = AsPath((701, 1239))
        assert path.contains_loop(1239)
        assert not path.contains_loop(3561)

    def test_invalid_asn_rejected(self):
        with pytest.raises(ValueError):
            AsPath((0,))
        with pytest.raises(ValueError):
            AsPath((70000,))

    def test_hashable_tuple_compatible(self):
        assert hash(AsPath((1, 2))) == hash((1, 2))
        assert AsPath((1, 2)) == (1, 2)

    @given(as_paths, asns)
    def test_prepend_property(self, path, asn):
        new = path.prepend(asn)
        assert new.neighbor_as == asn
        assert new.hop_count == path.hop_count + 1
        assert new.contains_loop(asn)
        if path:
            assert new.origin_as == path.origin_as


class TestPathAttributes:
    def test_defaults(self):
        attrs = PathAttributes()
        assert attrs.as_path == AsPath()
        assert attrs.next_hop == 0
        assert attrs.origin is Origin.IGP
        assert attrs.med is None

    def test_coerces_plain_tuples(self):
        attrs = PathAttributes(as_path=(701, 1239), communities=[1, 2])
        assert isinstance(attrs.as_path, AsPath)
        assert isinstance(attrs.communities, frozenset)

    def test_forwarding_key_ignores_policy_attrs(self):
        base = PathAttributes(as_path=AsPath((701,)), next_hop=0x0A000001)
        policy_changed = PathAttributes(
            as_path=AsPath((701,)),
            next_hop=0x0A000001,
            med=50,
            communities=frozenset({0xFFFF0001}),
        )
        assert (
            attribute_tuple(base)[:2] == attribute_tuple(policy_changed)[:2]
        )

    def test_forwarding_key_detects_path_change(self):
        a = PathAttributes(as_path=AsPath((701,)), next_hop=1)
        b = PathAttributes(as_path=AsPath((1239,)), next_hop=1)
        c = PathAttributes(as_path=AsPath((701,)), next_hop=2)
        assert attribute_tuple(a)[:2] != attribute_tuple(b)[:2]
        assert attribute_tuple(a)[:2] != attribute_tuple(c)[:2]

    def test_exported_by_transform(self):
        attrs = PathAttributes(
            as_path=AsPath((1239,)), next_hop=5, local_pref=200
        )
        out = attrs.exported_by(701, next_hop=9)
        assert out.as_path == AsPath((701, 1239))
        assert out.next_hop == 9
        assert out.local_pref is None  # stripped at eBGP export

    def test_exported_by_with_prepending(self):
        out = PathAttributes(as_path=AsPath((1,))).exported_by(
            7, next_hop=0, prepend=3
        )
        assert tuple(out.as_path) == (7, 7, 7, 1)

    def test_with_communities_accumulates(self):
        attrs = PathAttributes().with_communities(1).with_communities(2, 3)
        assert attrs.communities == frozenset({1, 2, 3})

    def test_frozen(self):
        attrs = PathAttributes()
        with pytest.raises(AttributeError):
            attrs.next_hop = 5

    def test_hashable(self):
        a = PathAttributes(as_path=AsPath((1,)), next_hop=2)
        b = PathAttributes(as_path=AsPath((1,)), next_hop=2)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(
        as_paths,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(list(Origin)),
        st.none() | st.integers(min_value=0, max_value=2**32 - 1),
        st.frozensets(st.integers(min_value=0, max_value=2**32 - 1)),
    )
    def test_attribute_tuple_leads_with_the_forwarding_key(
        self, path, next_hop, origin, med, communities
    ):
        """The classifier compares a carried bundle's forwarding key as
        the first two fields of its tuple, and whole bundles as whole
        tuples: both must agree with the objects, and a table holding
        only the tuple must build the object back."""
        attrs = PathAttributes(
            as_path=path, next_hop=next_hop, origin=origin, med=med,
            communities=communities,
        )
        key = attribute_tuple(attrs)
        assert key[:2] == (attrs.next_hop, tuple(attrs.as_path))
        assert AttributeTable.from_tuples([key])[0] == attrs
        changed = PathAttributes(
            as_path=path, next_hop=next_hop, origin=origin,
            med=None if med else 1, communities=communities,
        )
        assert attribute_tuple(changed) != key
