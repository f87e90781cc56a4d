"""Assembled core-Internet scenarios for event-driven simulation.

This module turns an :class:`~repro.topology.asgraph.AsGraph` into live
simulation objects: one border router per provider AS, customer
originations, and an exchange point with a logging route server.  It
is the Tier-A (event-driven) scenario behind Figure 10's live
multi-homing measurement.

Scale note: the real Mae-East carried ~42 000 prefixes from ~55 peers;
a pure-Python event simulation runs the same *mechanisms* at reduced
scale (tens of peers, hundreds of prefixes) and the statistical tier
(:mod:`repro.workloads`) extrapolates volumes.  What must match is the
*structure*: who withdraws more than they announce, where WWDups come
from, what the stateless→stateful fix changes.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..collector.record import MemoryLog
from ..net.prefix import Prefix
from ..sim.engine import Engine
from ..sim.router import Router
from ..sim.routeserver import ExchangePoint
from .asgraph import AsGraph, AsNode, Tier, build_internet_graph

__all__ = ["CoreInternetScenario"]


def _own_routes_policy(own: List[Prefix]):
    """The no-transit exchange export policy: advertise own customer
    routes, deny everything learned from other exchange peers."""
    from ..bgp.policy import MatchCondition, PolicyTerm, RouteMap

    return RouteMap(
        [PolicyTerm(MatchCondition(prefixes=tuple(own)))],
        name="own-routes-only",
    )


class CoreInternetScenario:
    """A runnable exchange-point scenario built from an AS graph.

    One border router is created per backbone/regional AS, attached to
    a single exchange point (full mesh + route server).  Customer
    prefixes are originated by their provider's router (customers'
    interior circuits are below the measurement horizon; what the
    exchange sees is the provider's border behaviour, which is what
    the paper measured).
    """

    def __init__(
        self,
        graph: Optional[AsGraph] = None,
        exchange_name: str = "Mae-East",
        mrai_interval: float = 30.0,
        seed: int = 0,
    ) -> None:
        self.engine = Engine()
        self.sink = MemoryLog()
        self.graph = graph or build_internet_graph(seed=seed)
        self.exchange = ExchangePoint(
            self.engine, name=exchange_name, sink=self.sink
        )
        self.routers: Dict[int, Router] = {}

        # Pre-compute what each provider will originate so its export
        # policy (own customer routes only — the standard no-transit
        # exchange policy) can be installed at construction.
        origination: Dict[int, List[Prefix]] = {
            node.asn: list(node.plan.announced)
            for node in self.graph.backbones + self.graph.regionals
        }
        for customer in self.graph.customers:
            for upstream in self.graph.providers_of(customer.asn):
                origination[upstream].extend(customer.plan.announced)

        providers = self.graph.backbones + self.graph.regionals
        for index, node in enumerate(providers):
            router = Router(
                self.engine,
                asn=node.asn,
                router_id=(172 << 24) | (index + 1),
                mrai_interval=mrai_interval,
                export_policy=_own_routes_policy(origination[node.asn]),
                rng=random.Random(seed * 7919 + node.asn),
                name=f"AS{node.asn}",
            )
            self.routers[node.asn] = router
            self.exchange.attach_provider(router)

        # Originations: each provider announces its own aggregates plus
        # the specifics of the customers homed on it.
        for node in providers:
            router = self.routers[node.asn]
            for prefix in origination[node.asn]:
                router.originate(prefix)

    # -- running ---------------------------------------------------------------

    def settle(self, duration: float = 300.0) -> None:
        """Let sessions establish and tables converge, then discard the
        convergence-phase records (the paper measured steady state)."""
        self.engine.run_until(self.engine.now + duration)
        self.sink.clear()

    @property
    def route_server(self):
        return self.exchange.route_server
