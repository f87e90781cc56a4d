"""The simulated worlds behind the paper's event-driven studies.

A builder ``(engine_cls, smoke=False, seed=None)`` builds one study's
world on a fresh engine of ``engine_cls``, runs it to the end and
returns it: a :class:`World`, or for an A/B study a dict of worlds,
one per arm, keyed by the knob that differs.  ``smoke`` picks a
seconds-long preset, ``seed=None`` the published draws.  The
experiment measures what the builder returns on
:class:`~repro.sim.engine.Engine`; the scenario registry
(:mod:`repro.sim.scenarios`) digests it on either engine.  The first
five builders are the paper's tables and figures, the rest the §3
countermeasure ablations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..analysis.convergence import ConvergenceProbe
from ..bgp.damping import DampingParameters, RouteFlapDamper
from ..bgp.policy import DENY_ALL, MatchCondition, PolicyTerm, RouteMap
from ..collector.record import MemoryLog
from ..net.prefix import Prefix
from ..topology.asgraph import Tier, internet_topology
from .faults import CustomerFlapGenerator, MisconfiguredProvider
from .flapstorm import FlapStormScenario
from .igp import IgpBgpRedistribution, IgpTable
from .link import CsuLink
from .router import CpuModel, RouteCache, Router, connect
from .routeserver import ExchangePoint, RouteServer
from .scheduler import EventScheduler
from .trafficgen import ForwardingWorkload

__all__ = [
    "BASE_ASN", "PROVIDER_SPECS", "World", "ablation_aggregation",
    "ablation_cache", "ablation_convergence", "ablation_damping",
    "ablation_filter", "ablation_routeserver", "ablation_storm",
    "core_exchange", "own_routes_only", "stateless_exchange",
    "stateless_fix", "timer_lines", "update_crash",
]


@dataclass(slots=True)
class World:
    """One built and run study arm: its engine, its routers by name
    (route servers included), the route-server log and the plain
    values the study reads off anything else.  The scenario digest
    covers all four."""

    engine: EventScheduler
    routers: Dict[str, Router]
    sink: MemoryLog = field(default_factory=MemoryLog)
    readings: Dict[str, object] = field(default_factory=dict)


def own_routes_only(own: List[Prefix]) -> RouteMap:
    """The no-transit exchange export policy: advertise own customer
    routes, deny everything learned from other exchange peers."""
    return RouteMap(
        [PolicyTerm(MatchCondition(prefixes=tuple(own)))],
        name="own-routes-only",
    )


#: Provider behaviour mirroring Table 1's spread.  ``flaps`` is the
#: per-provider customer flap rate (per second); ``bad`` marks the
#: ISP-I analogue.
PROVIDER_SPECS = {
    "Provider A": dict(stateless=True, flaps=1 / 400.0),
    "Provider B": dict(stateless=True, flaps=1 / 600.0),
    "Provider C": dict(stateless=False, flaps=1 / 2000.0),
    "Provider D": dict(stateless=False, flaps=1 / 1000.0),
    "Provider E": dict(stateless=False, flaps=1 / 120.0),
    "Provider F": dict(stateless=True, flaps=1 / 900.0),
    "Provider G": dict(stateless=True, flaps=1 / 800.0),
    "Provider H": dict(stateless=True, flaps=1 / 60.0),
    "Provider I": dict(stateless=True, flaps=1 / 500.0, bad=True),
    "Provider J": dict(stateless=False, flaps=1 / 100.0),
}

#: Provider ``index`` (in ``PROVIDER_SPECS`` order) peers as AS
#: ``BASE_ASN + index``; Table 1 finds its rows by the same rule.
BASE_ASN = 100


def stateless_exchange(
    engine_cls,
    smoke: bool = False,
    seed: Optional[int] = None,
    *,
    duration: Optional[float] = None,
    prefixes_per_provider: Optional[int] = None,
) -> World:
    """Table 1's AADS: the :data:`PROVIDER_SPECS` providers in a full
    mesh with a logging route server, each exporting only its own
    customer routes.  The sink holds what the server logged over
    ``duration`` steady-state seconds (3 hours, 40 prefixes per
    provider; smoke 5 minutes and 2)."""
    seed = 7 if seed is None else seed
    if duration is None:
        duration = 300.0 if smoke else 3 * 3600.0
    if prefixes_per_provider is None:
        prefixes_per_provider = 2 if smoke else 40
    engine = engine_cls()
    sink = MemoryLog()
    exchange = ExchangePoint(engine, name="AADS", sink=sink, full_mesh=True)
    rng = random.Random(seed)
    routers: Dict[str, Router] = {}
    base = 24 << 24
    all_prefixes = []
    for index, (name, spec) in enumerate(PROVIDER_SPECS.items()):
        own = [
            Prefix(base + (len(all_prefixes) + i) * 256, 24)
            for i in range(prefixes_per_provider)
        ]
        all_prefixes.extend(own)
        router = Router(
            engine, asn=BASE_ASN + index, router_id=(10 << 24) + index + 1,
            stateless_bgp=spec.get("stateless", False), mrai_interval=30.0,
            mrai_jitter=0.0, export_policy=own_routes_only(own),
            rng=random.Random(seed + index), name=name,
        )
        for prefix in own:
            router.originate(prefix)
        exchange.attach_provider(router)
        routers[name] = router
    engine.run_until(150.0)  # establish + table exchange
    sink.clear()             # measure steady state only

    for index, (name, spec) in enumerate(PROVIDER_SPECS.items()):
        router = routers[name]
        if spec.get("flaps"):
            CustomerFlapGenerator(
                engine, router, base_rate=spec["flaps"], outage_duration=4.0,
                rng=random.Random(seed * 31 + index),
            ).start()
        if spec.get("bad"):
            foreign = [
                p for p in all_prefixes if p not in set(router.originated)
            ]
            rng.shuffle(foreign)
            MisconfiguredProvider(
                engine, router, foreign[: min(len(foreign), 300)],
                period=5.0, rng=random.Random(seed * 97 + index),
            ).start()
    engine.run_until(engine.now + duration)
    routers["route server"] = exchange.route_server
    return World(engine, routers, sink)


def timer_lines(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> World:
    """Figure 8's mechanism tier: a customer behind a CSU-oscillating
    link (60 s) and a misconfigured IGP/BGP redistribution (30 s),
    logged at a route server for 4 hours (smoke: 15 minutes)."""
    engine = engine_cls()
    sink = MemoryLog()
    server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
    # Mechanism 1: customer behind a CSU-oscillating link (60s cycle).
    provider_a = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
    customer = Router(engine, asn=300, router_id=3, mrai_interval=5.0)
    csu = CsuLink(
        engine, up_duration=55.0, down_duration=5.0, noise=0.01,
        rng=random.Random(0 if seed is None else seed),
    )
    customer.add_peer(provider_a.router_id, provider_a.asn, csu)
    provider_a.add_peer(customer.router_id, customer.asn, csu)
    customer.start_session(provider_a.router_id)
    customer.originate(Prefix.parse("203.0.113.0/24"))
    connect(provider_a, server)
    # Mechanism 2: misconfigured mutual IGP/BGP redistribution on a
    # 30-second IGP timer.
    provider_b = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
    igp = IgpTable()
    igp.add_native(Prefix.parse("198.51.100.0/24"))
    IgpBgpRedistribution(engine, provider_b, igp, igp_period=30.0).start()
    connect(provider_b, server)
    engine.run_until(900.0 if smoke else 4 * 3600.0)
    routers = {"provider A": provider_a, "customer": customer,
               "provider B": provider_b, "route server": server}
    return World(engine, routers, sink)


def stateless_fix(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[bool, World]:
    """§4.2's vendor fix: a stateless provider (arm ``True``) and a
    stateful one under identical customer flaps, logged for an hour
    (smoke: 20 minutes) at a route server they export nothing to."""
    seed = 3 if seed is None else seed
    arms = {}
    for stateless in (True, False):
        engine = engine_cls()
        sink = MemoryLog()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        provider = Router(
            engine, asn=200, router_id=2, mrai_interval=30.0,
            stateless_bgp=stateless,
        )
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(origin, provider)
        connect(provider, server)
        # The provider never exports these customer routes (no-transit
        # policy toward the exchange), so every leaked withdrawal is
        # pure WWDup.
        provider.export_policy = DENY_ALL
        engine.run_until(60.0)
        for i in range(40):
            origin.originate(Prefix((10 << 24) + i * 256, 24))
        engine.run_until(120.0)
        sink.clear()
        rng = random.Random(seed)
        t = engine.now
        for _ in range(60):
            t += rng.uniform(20.0, 60.0)
            prefix = Prefix((10 << 24) + rng.randrange(40) * 256, 24)
            engine.schedule_at(t, origin.flap_origin, prefix, 5.0)
        engine.run_until(engine.now + (1200.0 if smoke else 3600.0))
        routers = {"origin": origin, "provider": provider,
                   "route server": server}
        arms[stateless] = World(engine, routers, sink)
    return arms


def update_crash(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[float, World]:
    """§6's experiment: a CPU-limited router blasted with withdrawals
    at 300 and 30 per second for a minute (smoke: the 40 s the 300/s
    arm takes to crash)."""
    # No draws: every burst withdraws the whole foreign set, so
    # ``seed`` has nothing to vary.
    arms = {}
    for rate in (300.0, 30.0):
        engine = engine_cls()
        source = Router(engine, asn=100, router_id=1, mrai_interval=1.0)
        victim = Router(
            engine, asn=200, router_id=2, mrai_interval=1.0,
            cpu=CpuModel(per_update=0.004),
            crash_queue_limit=1200,
        )
        connect(source, victim)
        engine.run_until(30.0)
        foreign = [Prefix((20 << 24) + i * 256, 24) for i in range(600)]
        MisconfiguredProvider(
            engine, source, foreign, period=len(foreign) / rate,
        ).start()
        engine.run_until(engine.now + (40.0 if smoke else 60.0))
        arms[rate] = World(engine, {"source": source, "victim": victim})
    return arms


def core_exchange(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> World:
    """Figure 10's exchange: one border router per provider AS of a
    generated topology (30 customers, 30% multi-homed; smoke 6) at a
    route server, settled for 150 s.  ``readings`` holds the ground
    truth, the multi-homed customers' prefix count."""
    seed = 11 if seed is None else seed
    nodes, edges = internet_topology(
        n_backbones=3, n_regionals=4, n_customers=6 if smoke else 30,
        multi_homed_fraction=0.3, seed=seed,
    )
    # Each provider announces and exports its own aggregates plus the
    # specifics of the customers homed on it (ASNs count from 1).
    origination = {
        node.asn: list(node.plan.announced)
        for node in nodes if node.tier is not Tier.CUSTOMER
    }
    for asn, upstream in edges:
        if nodes[asn - 1].tier is Tier.CUSTOMER:
            origination[upstream].extend(nodes[asn - 1].plan.announced)
    engine = engine_cls()
    sink = MemoryLog()
    exchange = ExchangePoint(engine, name="Mae-East", sink=sink)
    routers: Dict[str, Router] = {}
    for index, (asn, own) in enumerate(origination.items()):
        router = Router(
            engine, asn=asn, router_id=(172 << 24) | (index + 1),
            mrai_interval=5.0, export_policy=own_routes_only(own),
            rng=random.Random(seed * 7919 + asn), name=f"AS{asn}",
        )
        routers[router.name] = router
        exchange.attach_provider(router)
    for router in routers.values():
        for prefix in origination[router.asn]:
            router.originate(prefix)
    # Converge, then discard the convergence-phase records (the paper
    # measured steady state).
    engine.run_until(150.0)
    sink.clear()
    routers["route server"] = exchange.route_server
    truth = sum(len(n.plan.announced) for n in nodes if n.multi_homed)
    return World(engine, routers, sink, {"multi_homed_truth": truth})


# -- the §3 countermeasure ablations -----------------------------------------

def ablation_damping(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[bool, World]:
    """A customer route flapping 30 times a minute apart, then up for
    good, seen at a route server through a provider without (``False``)
    and with (``True``) RFC 2439 damping for 2 hours (smoke: 10 flaps,
    15 minutes)."""
    # No draws: the flap times are fixed, so ``seed`` has nothing to
    # vary.
    flaps, duration = (10, 900.0) if smoke else (30, 2 * 3600.0)
    flappy = Prefix.parse("192.0.2.0/24")
    arms = {}
    for damped in (False, True):
        engine = engine_cls()
        sink = MemoryLog()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        damper = RouteFlapDamper(DampingParameters()) if damped else None
        provider = Router(
            engine, asn=200, router_id=2, mrai_interval=5.0, damper=damper
        )
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(origin, provider)
        connect(provider, server)
        origin.originate(flappy)
        origin.originate(Prefix.parse("198.51.100.0/24"))
        engine.run_until(60.0)
        sink.clear()
        for i in range(flaps):
            engine.schedule_at(
                engine.now + i * 60.0, origin.flap_origin, flappy, 10.0
            )
        engine.run_until(engine.now + duration)
        routers = {"origin": origin, "provider": provider,
                   "route server": server}
        arms[damped] = World(engine, routers, sink, {
            "suppressed": damper.suppressed_updates if damper else 0,
            "finally_reachable": provider.loc_rib.best(flappy) is not None,
        })
    return arms


def ablation_aggregation(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[bool, World]:
    """A provider aggregating its 64 customer /24s into a /16
    (``True``) or leaking them, under the same 100 flaps over an hour
    (smoke: 20 over 10 minutes)."""
    seed = 6 if seed is None else seed
    n_flaps, duration = (20, 600.0) if smoke else (100, 3600.0)
    block = Prefix.parse("172.16.0.0/16")
    customers = list(block.subnets(24))[:64]
    arms = {}
    for aggregated in (True, False):
        engine = engine_cls()
        sink = MemoryLog()
        provider = Router(engine, asn=100, router_id=1, mrai_interval=30.0)
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(provider, server)
        for prefix in customers:
            provider.originate(prefix)
        if aggregated:
            provider.configure_aggregate(block)
        engine.run_until(90.0)
        sink.clear()
        rng = random.Random(seed)
        t = engine.now
        for _ in range(n_flaps):
            t += rng.expovariate(1 / 30.0)
            victim = rng.choice(customers)
            # Outage longer than the 30s MRAI so the withdrawal is
            # actually flushed (shorter flaps collapse inside the
            # batching window — itself a form of rate-limiting).
            engine.schedule_at(t, provider.flap_origin, victim, 45.0)
        engine.run_until(engine.now + duration)
        routers = {"provider": provider, "route server": server}
        arms[aggregated] = World(
            engine, routers, sink, {"table": len(server.loc_rib)}
        )
    return arms


def ablation_routeserver(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[bool, World]:
    """Twelve providers (smoke: four) peering in a bilateral full mesh
    (``True``) or through a re-advertising route server, for 300 s."""
    # No draws: a router draws only to restart a session, and none
    # drops, so ``seed`` has nothing to vary.
    arms = {}
    for full_mesh in (True, False):
        engine = engine_cls()
        exchange = ExchangePoint(
            engine, sink=MemoryLog(), full_mesh=full_mesh
        )
        exchange.route_server.readvertise = not full_mesh
        routers = {}
        for i in range(4 if smoke else 12):
            router = Router(
                engine, asn=100 + i, router_id=(10 << 24) + i + 1,
                mrai_interval=5.0,
            )
            router.originate(Prefix((30 << 24) + i * 65536, 16))
            exchange.attach_provider(router)
            routers[router.name] = router
        engine.run_until(300.0)
        reachable = sum(
            1
            for router in exchange.providers
            for other in exchange.providers
            if other is not router
            and router.loc_rib.best(other.originated[0]) is not None
        )
        routers["route server"] = exchange.route_server
        arms[full_mesh] = World(
            engine, routers, exchange.sink,
            {"reachable": reachable, "sessions": exchange.session_count},
        )
    return arms


def ablation_cache(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[bool, World]:
    """A route-caching forwarder (``True``) or a full-table one under
    the same traffic: a 120 s cache-filling phase, then a quiet and an
    unstable window of 300 s each over 200 prefixes (smoke: 10 s, 20 s,
    20 prefixes)."""
    seed = 8 if seed is None else seed
    n_prefixes, fill, window = (
        (20, 10.0, 20.0) if smoke else (200, 120.0, 300.0)
    )
    prefixes = [Prefix((60 << 24) + i * 256, 24) for i in range(n_prefixes)]
    arms = {}
    for cached in (True, False):
        engine = engine_cls()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=2.0)
        cache = RouteCache(capacity=400) if cached else None
        forwarding = Router(
            engine, asn=200, router_id=2, mrai_interval=2.0,
            cpu=CpuModel(per_update=0.02),
            # Capacity exceeds the working set, so warm-state misses
            # are compulsory only — the churn contrast stays visible.
            cache=cache,
        )
        connect(origin, forwarding)
        for prefix in prefixes:
            origin.originate(prefix)
        engine.run_until(120.0)

        def phase(draws: int, seconds: float):
            workload = ForwardingWorkload(
                engine, forwarding, prefixes, rate=200.0,
                rng=random.Random(seed + draws),
            )
            workload.start()
            engine.run_until(engine.now + seconds)
            workload.stop()
            return workload.stats

        phase(0, fill)  # fill the cache
        quiet = phase(1, window)
        # An identical window under instability.
        rng = random.Random(seed + 2)
        t = engine.now
        while t < engine.now + window:
            t += rng.expovariate(1 / 2.0)
            engine.schedule_at(
                t, origin.flap_origin, rng.choice(prefixes), 3.0
            )
        unstable = phase(3, window)
        routers = {"origin": origin, "forwarding": forwarding}
        arms[cached] = World(engine, routers, readings={
            "quiet": quiet,
            "unstable": unstable,
            "invalidations": cache.invalidations if cache else 0,
        })
    return arms


def ablation_convergence(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[float, World]:
    """An origin dual-homed to two meshed providers and a route server
    at MRAI 5 s and 30 s, probed by 10 flaps 400 s apart (smoke: 3)."""
    seed = 9 if seed is None else seed
    probes = 3 if smoke else 10
    arms = {}
    for mrai in (5.0, 30.0):
        engine = engine_cls()
        sink = MemoryLog()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=mrai)
        middle_a = Router(engine, asn=200, router_id=2, mrai_interval=mrai)
        middle_b = Router(engine, asn=300, router_id=3, mrai_interval=mrai)
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(origin, middle_a)
        connect(origin, middle_b)
        connect(middle_a, middle_b)
        connect(middle_a, server)
        connect(middle_b, server)
        prefix = Prefix.parse("192.0.2.0/24")
        origin.originate(prefix)
        engine.run_until(200.0)
        sink.clear()
        # The settle horizon must end before the next probe event, or
        # the next event's updates inflate this one's settle time.
        probe = ConvergenceProbe(engine, sink, settle_horizon=250.0)
        rng = random.Random(seed)
        for i in range(probes):
            engine.schedule(
                i * 400.0 + rng.uniform(0, 50.0),
                probe.flap, origin, prefix, 2 * mrai,
            )
        engine.run_until(engine.now + probes * 400.0 + 600.0)
        routers = {"origin": origin, "provider A": middle_a,
                   "provider B": middle_b, "route server": server}
        arms[mrai] = World(engine, routers, sink, {"report": probe.report()})
    return arms


def ablation_filter(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[bool, World]:
    """An observer without (``False``) and with a > /20 import filter
    behind an origin of four /8s and forty /24s flapping 80 times over
    an hour (smoke: 20 over 10 minutes)."""
    seed = 10 if seed is None else seed
    n_flaps, duration = (20, 600.0) if smoke else (80, 3600.0)
    short_prefixes = [Prefix((70 + i) << 24, 8) for i in range(4)]
    long_prefixes = [Prefix((80 << 24) + i * 256, 24) for i in range(40)]
    le_20_only = RouteMap(
        [PolicyTerm(MatchCondition(prefixes=(Prefix(0, 0),), ge=0, le=20))],
        name="le-20-only",
    )
    arms = {}
    for filtered in (False, True):
        engine = engine_cls()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=10.0)
        observer = Router(
            engine, asn=200, router_id=2, mrai_interval=10.0,
            import_policy=le_20_only if filtered else None,
        )
        connect(origin, observer)
        for prefix in short_prefixes + long_prefixes:
            origin.originate(prefix)
        engine.run_until(90.0)
        rng = random.Random(seed)
        t = engine.now
        for _ in range(n_flaps):
            t += rng.expovariate(1 / 30.0)
            engine.schedule_at(
                t, origin.flap_origin, rng.choice(long_prefixes), 25.0
            )
        engine.run_until(engine.now + duration)
        reachable = [
            sum(1 for p in prefixes if observer.loc_rib.best(p) is not None)
            for prefixes in (long_prefixes, short_prefixes)
        ]
        routers = {"origin": origin, "observer": observer}
        arms[filtered] = World(engine, routers, readings={
            "table": len(observer.loc_rib),
            "reachable_long": reachable[0],
            "reachable_short": reachable[1],
        })
    return arms


def ablation_storm(
    engine_cls, smoke: bool = False, seed: Optional[int] = None
) -> Dict[bool, World]:
    """600 flaps in 20 s on a slow-CPU mesh of five routers with 40
    prefixes each (smoke: 150 on three with ten), keepalives queued
    behind updates (``False``) or prioritized (the vendors' fix)."""
    n_routers, per_router, flaps = (3, 10, 150) if smoke else (5, 40, 600)
    arms = {}
    for priority in (False, True):
        engine = engine_cls()
        scenario = FlapStormScenario(
            engine,
            n_routers=n_routers,
            prefixes_per_router=per_router,
            cpu=CpuModel(
                per_update=0.1, per_sent_update=0.05, per_dump_route=0.05
            ),
            keepalive_priority=priority,
            hold_time=30.0,
            seed=1 if seed is None else seed,
        )
        storm = scenario.storm(flaps=flaps, over_seconds=20.0)
        routers = {router.name: router for router in scenario.routers}
        arms[priority] = World(engine, routers, readings={"storm": storm})
    return arms
