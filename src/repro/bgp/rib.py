"""Routing Information Bases and the BGP decision process.

A BGP speaker keeps, per RFC 4271 §3.2:

- **Adj-RIB-In** — the routes each peer advertised, post input policy;
- **Loc-RIB** — the single best route per prefix after the decision
  process;
- **Adj-RIB-Out** — what was advertised to each peer (a *stateful*
  implementation keeps this; the paper's problem vendor did not — see
  :class:`repro.sim.router.Router`).

The decision process implemented in :func:`best_route` is the standard
rank: highest LOCAL_PREF, then shortest ASPATH, then lowest ORIGIN, then
lowest MED among routes from the same neighbor AS, then lowest peer
address as the deterministic tiebreak.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, Iterable, List, Optional, Tuple

from ..net.prefix import Prefix
from .attributes import PathAttributes, interned

__all__ = [
    "Route",
    "RibChange",
    "ChangeKind",
    "AdjRibIn",
    "AdjRibOut",
    "LocRib",
    "DEFAULT_LOCAL_PREF",
    "best_route",
]

#: LOCAL_PREF assumed when a route carries none (Cisco/IOS convention).
DEFAULT_LOCAL_PREF = 100


@dataclass(frozen=True, slots=True)
class Route:
    """One candidate path: a prefix, its attributes, and the peer it
    came from (``peer`` is the peer's 32-bit address / identifier)."""

    prefix: Prefix
    attributes: PathAttributes
    peer: int


class ChangeKind(Enum):
    """What a RIB update did to the best route for a prefix."""

    NONE = auto()          #: best route unchanged
    ANNOUNCE = auto()      #: new or changed best route
    WITHDRAW = auto()      #: prefix no longer reachable


@dataclass(frozen=True, slots=True)
class RibChange:
    """The outcome of applying one announcement/withdrawal to the RIB."""

    kind: ChangeKind
    prefix: Prefix
    best: Optional[Route] = None       #: new best (for ANNOUNCE)
    previous: Optional[Route] = None   #: previous best, if any


def _rank(route: Route) -> Tuple:
    """Sort key: *lower* is better (so ``min`` picks the winner).

    The tail terms after the peer address make the key a *total*
    order over distinct routes, so selection can never depend on
    announcement order (a peer cannot hold two routes for one prefix
    in a RIB, but :func:`best_route` is a public function and must be
    deterministic for arbitrary inputs).
    """
    attrs = route.attributes
    local_pref = (
        attrs.local_pref if attrs.local_pref is not None else DEFAULT_LOCAL_PREF
    )
    return (
        -local_pref,
        attrs.as_path.hop_count,
        int(attrs.origin),
        route.peer,
        attrs.next_hop,
        tuple(attrs.as_path),
        -1 if attrs.med is None else attrs.med,
        # Raw optional/policy attributes: routes that tie on every
        # criterion above can still be distinct objects (local_pref
        # None vs. the explicit default, differing communities), and
        # a stable sort would then hand the win to whichever arrived
        # first — announcement-order dependence.
        -1 if attrs.local_pref is None else attrs.local_pref,
        tuple(sorted(attrs.communities)),
        attrs.atomic_aggregate,
        (-1, -1) if attrs.aggregator is None else attrs.aggregator,
    )


def best_route(candidates: Iterable[Route]) -> Optional[Route]:
    """Run the decision process over ``candidates``; None if empty.

    MED comparison applies only between routes whose ASPATHs start at
    the same neighbor AS, per the RFC; it is applied as a refinement
    after the primary ranking.
    """
    routes = list(candidates)
    if not routes:
        return None
    routes.sort(key=_rank)
    top = routes[0]
    # MED refinement: among routes tied with ``top`` on the primary
    # criteria (local-pref/path-length/origin) AND sharing the neighbor
    # AS, prefer the lowest MED.
    primary = _rank(top)[:3]
    contenders = [
        r
        for r in routes
        if _rank(r)[:3] == primary
        and r.attributes.as_path.neighbor_as == top.attributes.as_path.neighbor_as
    ]
    if len(contenders) > 1:
        def med_key(route: Route) -> Tuple:
            med = route.attributes.med
            return (med if med is not None else 0, _rank(route))

        return min(contenders, key=med_key)
    return top


class AdjRibIn:
    """Routes received from peers, keyed by (peer, prefix).

    Attributes are interned on ingest (:func:`interned`): many peers
    announcing the same path share one :class:`PathAttributes` object
    instead of one per (peer, prefix) entry.
    """

    __slots__ = ("_by_peer",)

    def __init__(self) -> None:
        self._by_peer: Dict[int, Dict[Prefix, PathAttributes]] = {}

    def update(self, peer: int, prefix: Prefix, attrs: PathAttributes) -> None:
        """Record an announcement from ``peer``."""
        self._by_peer.setdefault(peer, {})[prefix] = interned(attrs)

    def withdraw(self, peer: int, prefix: Prefix) -> bool:
        """Remove ``peer``'s route for ``prefix``; True if one existed."""
        table = self._by_peer.get(peer)
        if table is None:
            return False
        return table.pop(prefix, None) is not None

    def drop_peer(self, peer: int) -> List[Prefix]:
        """Remove everything learned from ``peer`` (session loss);
        returns the affected prefixes."""
        table = self._by_peer.pop(peer, None)
        return list(table) if table else []

    def candidates(self, prefix: Prefix) -> List[Route]:
        """All candidate routes for ``prefix`` across peers."""
        return [
            Route(prefix, attrs, peer)
            for peer, table in self._by_peer.items()
            if (attrs := table.get(prefix)) is not None
        ]

    def routes_from(self, peer: int) -> Dict[Prefix, PathAttributes]:
        """The full Adj-RIB-In for one peer (a copy)."""
        return dict(self._by_peer.get(peer, {}))

    def peers(self) -> List[int]:
        return list(self._by_peer)

    def __len__(self) -> int:
        return sum(len(t) for t in self._by_peer.values())


class AdjRibOut:
    """What was advertised to each peer.

    This is the state the paper's "stateless BGP" vendor chose not to
    keep; with it, a router can suppress withdrawals for prefixes it
    never advertised to a given peer (avoiding WWDups) and duplicate
    re-announcements (avoiding some AADups).
    """

    __slots__ = ("_by_peer",)

    def __init__(self) -> None:
        self._by_peer: Dict[int, Dict[Prefix, PathAttributes]] = {}

    def advertised(self, peer: int, prefix: Prefix) -> Optional[PathAttributes]:
        """What we last sent ``peer`` for ``prefix``, if anything."""
        return self._by_peer.get(peer, {}).get(prefix)

    def record_announce(
        self, peer: int, prefix: Prefix, attrs: PathAttributes
    ) -> None:
        self._by_peer.setdefault(peer, {})[prefix] = interned(attrs)

    def record_withdraw(self, peer: int, prefix: Prefix) -> bool:
        """Forget the advertisement to ``peer``; True if one existed."""
        table = self._by_peer.get(peer)
        if table is None:
            return False
        return table.pop(prefix, None) is not None

    def drop_peer(self, peer: int) -> None:
        self._by_peer.pop(peer, None)

    def __len__(self) -> int:
        return sum(len(t) for t in self._by_peer.values())


class LocRib:
    """The local best-route table, maintained incrementally.

    :meth:`apply_announce` / :meth:`apply_withdraw` mutate the Adj-RIB-In
    and return a :class:`RibChange` describing what happened to the best
    route — the signal a border router turns into outbound updates.
    """

    __slots__ = ("adj_in", "_best")

    def __init__(self) -> None:
        self.adj_in = AdjRibIn()
        self._best: Dict[Prefix, Route] = {}

    # -- queries -------------------------------------------------------------

    def best(self, prefix: Prefix) -> Optional[Route]:
        return self._best.get(prefix)

    def prefixes(self) -> List[Prefix]:
        return list(self._best)

    def routes(self) -> List[Route]:
        return list(self._best.values())

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._best

    # -- mutations ------------------------------------------------------------

    def apply_announce(
        self, peer: int, prefix: Prefix, attrs: PathAttributes
    ) -> RibChange:
        """Apply an announcement from ``peer`` and recompute the best."""
        self.adj_in.update(peer, prefix, attrs)
        return self._reselect(prefix)

    def apply_withdraw(self, peer: int, prefix: Prefix) -> RibChange:
        """Apply a withdrawal from ``peer`` and recompute the best."""
        had_route = self.adj_in.withdraw(peer, prefix)
        if not had_route:
            # The peer withdrew something it never announced — exactly the
            # pathological WWDup precondition the paper observed.  The RIB
            # is untouched.
            return RibChange(ChangeKind.NONE, prefix, self._best.get(prefix))
        return self._reselect(prefix)

    def drop_peer(self, peer: int) -> List[RibChange]:
        """Remove a peer entirely (session loss); returns the changes."""
        affected = self.adj_in.drop_peer(peer)
        return [self._reselect(prefix) for prefix in affected]

    def _reselect(self, prefix: Prefix) -> RibChange:
        previous = self._best.get(prefix)
        new_best = best_route(self.adj_in.candidates(prefix))
        if new_best is None:
            if previous is None:
                return RibChange(ChangeKind.NONE, prefix)
            del self._best[prefix]
            return RibChange(ChangeKind.WITHDRAW, prefix, previous=previous)
        if previous is not None and previous == new_best:
            return RibChange(ChangeKind.NONE, prefix, new_best, previous)
        self._best[prefix] = new_best
        return RibChange(
            ChangeKind.ANNOUNCE, prefix, new_best, previous
        )
