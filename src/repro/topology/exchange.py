"""The U.S. public exchange points (Figure 1).

The paper instrumented the Routing Arbiter route servers at five major
exchanges.  This module carries the static facts Figure 1 reports —
name, location, and the number of providers peering with the route
server — plus :class:`ExchangePoint`, the simulation construct that
wires provider border routers and a logging route server into the
shared exchange fabric.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.engine import Engine
from ..sim.link import Link
from ..sim.router import Router
from ..sim.routeserver import RouteServer

__all__ = ["ExchangeInfo", "EXCHANGE_POINTS", "ExchangePoint"]


@dataclass(frozen=True)
class ExchangeInfo:
    """Static description of one public exchange point."""

    name: str
    location: str
    #: Providers peering with the Routing Arbiter route server there
    #: (approximate mid-1996 values; Mae-East "currently hosts over 60
    #: service providers" with the route servers peering with >90%).
    route_server_peers: int
    largest: bool = False


#: Figure 1's five measured exchanges.
EXCHANGE_POINTS: Tuple[ExchangeInfo, ...] = (
    ExchangeInfo("Mae-East", "Washington, D.C.", 55, largest=True),
    ExchangeInfo("AADS", "Chicago", 20),
    ExchangeInfo("Sprint", "Pennsauken, NJ", 15),
    ExchangeInfo("PacBell", "San Francisco", 25),
    ExchangeInfo("Mae-West", "San Jose", 30),
)


def exchange_by_name(name: str) -> ExchangeInfo:
    """Look up one of the five measured exchanges."""
    for info in EXCHANGE_POINTS:
        if info.name.lower() == name.lower():
            return info
    raise KeyError(f"unknown exchange point {name!r}")


class ExchangePoint:
    """A simulated public exchange: provider routers, a shared fabric,
    and a Routing Arbiter route server logging to ``sink``.

    The fabric is modelled as point-to-point links (the real FDDI/ATM
    fabrics carried bilateral BGP sessions; the link abstraction per
    peering matches that).  ``full_mesh=True`` adds the O(N²) bilateral
    provider peerings; with False only the provider↔route-server
    sessions exist (the O(N) route-server configuration of §3).
    """

    def __init__(
        self,
        engine: Engine,
        name: str = "Mae-East",
        sink=None,
        server_asn: int = 65000,
        full_mesh: bool = True,
        link_delay: float = 0.005,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.sink = sink
        self.full_mesh = full_mesh
        self.link_delay = link_delay
        # crc32, not hash(): str hashes are PYTHONHASHSEED-salted, so
        # the default seed would differ on every run (DET004).
        self.rng = rng or random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        self.route_server = RouteServer(
            engine,
            asn=server_asn,
            router_id=(10 << 24) | 0xFFFF,
            sink=sink,
            name=f"{name}-rs",
        )
        self.providers: List[Router] = []
        self._links: List[Link] = []

    def attach_provider(self, router: Router, start: bool = True) -> None:
        """Connect a provider border router to the exchange.

        Peers it with the route server and (in full-mesh mode) with all
        previously attached providers.
        """
        server_link = Link(self.engine, delay=self.link_delay)
        router.add_peer(
            self.route_server.router_id, self.route_server.asn, server_link
        )
        self.route_server.add_peer(router.router_id, router.asn, server_link)
        self._links.append(server_link)
        if start:
            router.start_session(self.route_server.router_id)
        if self.full_mesh:
            for other in self.providers:
                link = Link(self.engine, delay=self.link_delay)
                router.add_peer(other.router_id, other.asn, link)
                other.add_peer(router.router_id, router.asn, link)
                self._links.append(link)
                if start:
                    router.start_session(other.router_id)
        self.providers.append(router)

    @property
    def session_count(self) -> int:
        """Configured peering sessions (the O(N²) vs O(N) contrast)."""
        n = len(self.providers)
        if self.full_mesh:
            return n + n * (n - 1) // 2
        return n

    def links(self) -> Sequence[Link]:
        return tuple(self._links)
