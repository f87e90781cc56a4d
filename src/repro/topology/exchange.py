"""The U.S. public exchange points (Figure 1).

The paper instrumented the Routing Arbiter route servers at five major
exchanges.  This module carries the static facts Figure 1 reports —
name, location, and the number of providers peering with the route
server.  The simulation construct that wires provider border routers
and a logging route server into an exchange fabric is
:class:`repro.sim.routeserver.ExchangePoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ExchangeInfo", "EXCHANGE_POINTS", "exchange_by_name"]


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
