"""Routing policy: filters and attribute manipulation.

The paper defines *policy fluctuation* as updates that change only
non-forwarding attributes, and notes that "routing policies on an
autonomous system's border routers may result in different update
information being transmitted to each external peer."  This module
models the policy machinery that produces those differences: ordered
route-maps of match/action terms applied at import or export time.

A :class:`RouteMap` is an ordered list of :class:`PolicyTerm`; the first
matching term decides.  Terms match on prefix lists (with optional
length ranges), an AS anywhere on the ASPATH, the origin AS, and a
community, and either deny the route or permit it with attribute
rewrites (the classic set local-pref / set MED / add community /
prepend actions).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Tuple

from ..net.prefix import Prefix
from .attributes import PathAttributes

__all__ = [
    "MatchCondition",
    "Action",
    "PolicyTerm",
    "RouteMap",
    "PERMIT_ALL",
    "DENY_ALL",
]


@dataclass(frozen=True)
class MatchCondition:
    """The match half of a policy term.  Empty fields match anything.

    ``prefixes`` matches when the candidate prefix is covered by any
    listed prefix and its length lies in ``ge``..``le`` (router-style
    ``ge``/``le`` prefix-list semantics).
    """

    prefixes: Tuple[Prefix, ...] = ()
    ge: int = 0
    le: int = 32
    as_on_path: Optional[int] = None
    origin_as: Optional[int] = None
    community: Optional[int] = None

    def matches(self, prefix: Prefix, attrs: PathAttributes) -> bool:
        """True if this condition matches the candidate route."""
        if self.prefixes:
            if not any(listed.covers(prefix) for listed in self.prefixes):
                return False
            if not (self.ge <= prefix.length <= self.le):
                return False
        if self.as_on_path is not None:
            if not attrs.as_path.contains_loop(self.as_on_path):
                return False
        if self.origin_as is not None:
            if attrs.as_path.origin_as != self.origin_as:
                return False
        if self.community is not None:
            if self.community not in attrs.communities:
                return False
        return True


@dataclass(frozen=True)
class Action:
    """The action half of a permit term: attribute rewrites."""

    set_local_pref: Optional[int] = None
    set_med: Optional[int] = None
    add_communities: Tuple[int, ...] = ()
    strip_communities: bool = False
    prepend: int = 0          #: extra copies of ``prepend_asn`` to add
    prepend_asn: Optional[int] = None

    def apply(self, attrs: PathAttributes) -> PathAttributes:
        """Rewrite ``attrs`` per this action."""
        result = attrs
        if self.set_local_pref is not None:
            result = replace(result, local_pref=self.set_local_pref)
        if self.set_med is not None:
            result = replace(result, med=self.set_med)
        if self.strip_communities:
            result = replace(result, communities=frozenset())
        if self.add_communities:
            result = result.with_communities(*self.add_communities)
        if self.prepend and self.prepend_asn is not None:
            result = replace(
                result,
                as_path=result.as_path.prepend(self.prepend_asn, self.prepend),
            )
        return result


@dataclass(frozen=True)
class PolicyTerm:
    """One route-map entry: a match, a permit/deny verdict, an action."""

    match: MatchCondition = field(default_factory=MatchCondition)
    permit: bool = True
    action: Action = field(default_factory=Action)
    name: str = ""


class RouteMap:
    """An ordered route-map; the first matching term wins.

    A route matching no term is denied (router default).  The
    evaluation cost — every route tested against a potentially long
    term list — is exactly the per-update policy cost the paper calls
    out as a router CPU burden; :attr:`evaluations` counts terms tested
    so the router CPU model can charge for it.
    """

    def __init__(self, terms: Iterable[PolicyTerm] = (), name: str = "") -> None:
        self.terms: List[PolicyTerm] = list(terms)
        self.name = name
        self.evaluations = 0

    def evaluate(
        self, prefix: Prefix, attrs: PathAttributes
    ) -> Optional[PathAttributes]:
        """Apply the map: the rewritten attributes, or None if denied."""
        for term in self.terms:
            self.evaluations += 1
            if term.match.matches(prefix, attrs):
                if not term.permit:
                    return None
                return term.action.apply(attrs)
        return None

    def __len__(self) -> int:
        return len(self.terms)


#: A map that permits everything unchanged.
PERMIT_ALL = RouteMap([PolicyTerm()], name="permit-all")

#: A map that denies everything.
DENY_ALL = RouteMap([], name="deny-all")

