"""BGP path attributes.

The paper's classification taxonomy keys on the ``(Prefix, NextHop,
ASPATH)`` tuple: changes there are *forwarding* instability, while
changes confined to the remaining attributes (MED, LOCAL_PREF,
communities, ...) are *policy fluctuation*.  This module defines the
attribute model both the simulator's routers and the classifier share.

:class:`AsPath` is an immutable sequence of AS numbers with the loop
check BGP performs on every received update; :class:`PathAttributes`
bundles a route's full attribute set, and :func:`attribute_tuple`
renders it as the plain tuple whose first two fields are the paper's
forwarding key — the forwarding / full-tuple distinction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import IntEnum
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

__all__ = [
    "AsPath",
    "Origin",
    "PathAttributes",
    "WELL_KNOWN_COMMUNITIES",
    "attribute_tuple",
    "bundle_attributes",
    "interned",
]


class Origin(IntEnum):
    """BGP ORIGIN attribute codes (RFC 4271 §4.3)."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


class AsPath(tuple):
    """An immutable ASPATH: the sequence of ASes a route traversed.

    The leftmost element is the most recent AS (the neighbor that sent the
    route); the rightmost is the origin AS.  Only AS_SEQUENCE segments are
    modelled — AS_SET aggregation segments are beyond what the paper's
    analysis needs, and every simulated update carries a plain sequence.

    Examples
    --------
    >>> path = AsPath((701, 1239, 3561))
    >>> path.origin_as
    3561
    >>> path.prepend(174)
    AsPath(174 701 1239 3561)
    >>> path.contains_loop(1239)
    True
    """

    __slots__ = ()

    def __new__(cls, asns: Iterable[int] = ()) -> "AsPath":
        asns = tuple(asns)
        for asn in asns:
            if not isinstance(asn, int) or not 0 < asn < 65536:
                raise ValueError(f"invalid AS number {asn!r}")
        return tuple.__new__(cls, asns)

    @property
    def origin_as(self) -> Optional[int]:
        """The AS that originated the route (rightmost), or None if empty."""
        return self[-1] if self else None

    @property
    def neighbor_as(self) -> Optional[int]:
        """The AS the route was most recently received from (leftmost)."""
        return self[0] if self else None

    def prepend(self, asn: int, count: int = 1) -> "AsPath":
        """A new path with ``asn`` prepended ``count`` times.

        This is what a border router does before exporting a route to an
        external peer; ``count > 1`` models ASPATH-prepending traffic
        engineering.
        """
        if count < 1:
            raise ValueError("prepend count must be >= 1")
        return AsPath((asn,) * count + tuple(self))

    def contains_loop(self, asn: int) -> bool:
        """True if ``asn`` already appears — the BGP loop-detection test.

        Every BGP router applies this to incoming updates; the paper
        notes the check is defeated when ASPATH is lost across an
        IGP redistribution boundary (§4.2).
        """
        return asn in self

    @property
    def hop_count(self) -> int:
        """Path length counting repeated (prepended) ASes."""
        return len(self)

    def __repr__(self) -> str:
        return f"AsPath({' '.join(str(a) for a in self)})"

    def __str__(self) -> str:
        return " ".join(str(a) for a in self)


#: Well-known community values (RFC 1997).
WELL_KNOWN_COMMUNITIES = {
    "NO_EXPORT": 0xFFFFFF01,
    "NO_ADVERTISE": 0xFFFFFF02,
    "NO_EXPORT_SUBCONFED": 0xFFFFFF03,
}


@dataclass(frozen=True, slots=True)
class PathAttributes:
    """The attribute set accompanying one route announcement.

    ``next_hop`` is the 32-bit address of the border router to forward
    through.  ``med`` and ``local_pref`` are optional metrics;
    ``communities`` is a frozenset of 32-bit community values.

    The paper's key analytical move is splitting this bundle in two:

    - the forwarding key ``(next_hop, as_path)`` — the first two fields
      of :func:`attribute_tuple`; together with the prefix this is the
      tuple whose change constitutes *forwarding instability*.
    - everything else — changes only here are *policy fluctuation*.
    """

    as_path: AsPath = field(default_factory=AsPath)
    next_hop: int = 0
    origin: Origin = Origin.IGP
    med: Optional[int] = None
    local_pref: Optional[int] = None
    communities: FrozenSet[int] = frozenset()
    atomic_aggregate: bool = False
    aggregator: Optional[Tuple[int, int]] = None  # (asn, router-id)

    def __post_init__(self) -> None:
        if not isinstance(self.as_path, AsPath):
            object.__setattr__(self, "as_path", AsPath(self.as_path))
        if not isinstance(self.communities, frozenset):
            object.__setattr__(
                self, "communities", frozenset(self.communities)
            )

    def exported_by(self, asn: int, next_hop: int, prepend: int = 1) -> "PathAttributes":
        """The attributes a border router of ``asn`` sends an external peer.

        Prepends the local AS, rewrites NEXT_HOP, and strips the
        non-transitive LOCAL_PREF — the standard eBGP export transform.
        """
        return replace(
            self,
            as_path=self.as_path.prepend(asn, prepend),
            next_hop=next_hop,
            local_pref=None,
        )

    def with_communities(self, *communities: int) -> "PathAttributes":
        """Copy with additional community values attached."""
        return replace(
            self, communities=self.communities | frozenset(communities)
        )


def attribute_tuple(attrs: PathAttributes) -> tuple:
    """One bundle as the plain tuple ``(next_hop, as_path, origin, med,
    local_pref, communities, atomic_aggregate, aggregator)``, equal
    exactly when the bundles are: what the classifier carries,
    :func:`~repro.core.routestate.route_state_digest` renders and a
    chunk footer decodes to."""
    return (attrs.next_hop, tuple(attrs.as_path), int(attrs.origin),
            attrs.med, attrs.local_pref, tuple(sorted(attrs.communities)),
            attrs.atomic_aggregate, attrs.aggregator)


def bundle_attributes(bundle: tuple) -> PathAttributes:
    """The bundle whose :func:`attribute_tuple` is ``bundle``."""
    hop, path, origin, med, pref, comms, atomic, aggregator = bundle
    return PathAttributes(AsPath(path), hop, Origin(origin), med, pref,
                          frozenset(comms), atomic, aggregator)


#: Cap on the interning pool; cleared wholesale when hit so pathological
#: attribute churn (fuzzing) cannot grow it without bound.
_INTERN_LIMIT = 65536

_intern_pool: Dict[PathAttributes, PathAttributes] = {}


def interned(attrs: PathAttributes) -> PathAttributes:
    """The canonical shared instance equal to ``attrs``.

    A table holds one :class:`PathAttributes` per *distinct* path; the
    RIBs and routers intern on ingest so AdjRibIn/LocRib/AdjRibOut
    entries for the same path share one object instead of one per
    (peer, prefix).  Safe because the class is frozen: interning changes
    identity only, never equality or ordering.
    """
    cached = _intern_pool.get(attrs)
    if cached is not None:
        return cached
    if len(_intern_pool) >= _INTERN_LIMIT:
        _intern_pool.clear()
    _intern_pool[attrs] = attrs
    return attrs
