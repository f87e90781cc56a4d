"""Ablation studies for the countermeasures the paper discusses.

The paper evaluates (qualitatively) several stability mechanisms; each
gets a quantitative ablation here:

- **Route-flap damping** (§3): suppresses flapping routes but delays
  legitimate re-announcements — both sides measured.
- **Aggregation** (§3/§4.1): a well-aggregated provider absorbs
  customer flaps inside its supernet; a leaky one exports every /24
  flap.
- **Route servers** (§3): O(N²) bilateral sessions vs O(N) through the
  server.
- **Timer jitter** (§4.2): unjittered timers self-synchronize;
  jittered ones do not (the Floyd–Jacobson ablation).
- **Keepalive priority** (§3): whether BGP control traffic priority
  contains route-flap storms.
"""

from __future__ import annotations

import random
from typing import Optional

from ..bgp.damping import DampingParameters, RouteFlapDamper
from ..core.report import ExperimentResult, Table
from ..net.prefix import Prefix
from ..sim.engine import Engine
from ..sim.flapstorm import FlapStormScenario
from ..sim.router import CpuModel, Router, connect
from ..sim.routeserver import ExchangePoint, RouteServer
from ..sim.sync import SynchronizationStudy
from ..collector.record import MemoryLog

__all__ = [
    "run_damping_study",
    "run_aggregation_study",
    "run_route_server_study",
    "run_synchronization_study",
    "run_storm_study",
    "run_cache_study",
    "run_convergence_study",
    "run_filter_study",
]


def run_damping_study(seed: int = 5, duration: float = 2 * 3600.0) -> ExperimentResult:
    """Flap-damping ablation: update suppression vs reachability delay.

    One flapping customer route plus one well-behaved route, observed
    through a router with and without RFC 2439 damping.
    """
    results = {}
    for damped in (False, True):
        engine = Engine()
        sink = MemoryLog()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
        damper = RouteFlapDamper(DampingParameters()) if damped else None
        provider = Router(
            engine, asn=200, router_id=2, mrai_interval=5.0, damper=damper
        )
        server = RouteServer(engine, asn=65000, router_id=99, sink=sink)
        connect(origin, provider)
        connect(provider, server)
        flappy = Prefix.parse("192.0.2.0/24")
        stable = Prefix.parse("198.51.100.0/24")
        origin.originate(flappy)
        origin.originate(stable)
        engine.run_until(60.0)
        sink.clear()
        # Aggressive flapping for 30 minutes, then the route comes up
        # for good (the "legitimate announcement" damping delays).
        t = engine.now
        rng = random.Random(seed)
        for i in range(30):
            engine.schedule_at(
                t + i * 60.0, origin.flap_origin, flappy, 10.0
            )
        settle_time = t + 1900.0
        engine.run_until(engine.now + duration)
        updates_seen = len(sink)
        reachable = provider.loc_rib.best(flappy) is not None
        # When was the flappy route last (re)installed at the provider?
        results[damped] = dict(
            updates=updates_seen,
            finally_reachable=reachable,
            suppressed=damper.suppressed_updates if damper else 0,
        )
    result = ExperimentResult(
        "ablation-damping", "Route-flap damping: suppression vs delay"
    )
    table = Table(
        "Damping ablation",
        ["configuration", "updates at server", "route finally reachable"],
    )
    table.add_row(
        "no damping", results[False]["updates"],
        str(results[False]["finally_reachable"]),
    )
    table.add_row(
        "RFC 2439 damping", results[True]["updates"],
        str(results[True]["finally_reachable"]),
    )
    result.tables.append(table)
    result.record(
        "update_reduction_factor",
        results[False]["updates"] / max(1, results[True]["updates"]),
        expect=(1.5, float("inf")),
    )
    result.record(
        "damped_route_recovers",
        int(results[True]["finally_reachable"]),
        expect=(1, 1),
    )
    result.record(
        "updates_suppressed", results[True]["suppressed"], expect=(1, 10**9)
    )
    return result


def run_aggregation_study(seed: int = 6, duration: float = 3600.0) -> ExperimentResult:
    """Aggregation ablation: a provider running real CIDR aggregation
    (one /16 supernet covering its customers) vs one leaking all 64
    customer /24s, under *identical* customer flapping.  Both sides
    originate the same customer routes; the only difference is
    ``configure_aggregate`` — §4.1's mechanism, implemented in the
    router."""
    results = {}
    block = Prefix.parse("172.16.0.0/16")
    customers = list(block.subnets(24))[:64]
    for aggregated in (True, False):
        engine = Engine()
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
        for _ in range(100):
            t += rng.expovariate(1 / 30.0)
            victim = rng.choice(customers)
            # Outage longer than the 30s MRAI so the withdrawal is
            # actually flushed (shorter flaps collapse inside the
            # batching window — itself a form of rate-limiting).
            engine.schedule_at(t, provider.flap_origin, victim, 45.0)
        engine.run_until(engine.now + duration)
        results[aggregated] = dict(
            updates=len(sink),
            table=len(server.loc_rib),
        )
    result = ExperimentResult(
        "ablation-aggregation",
        "CIDR aggregation: supernet vs leaked customer specifics",
    )
    table = Table(
        "Aggregation ablation",
        ["configuration", "globally visible prefixes", "updates at server"],
    )
    table.add_row("aggregated /16", results[True]["table"],
                  results[True]["updates"])
    table.add_row("64 leaked /24s", results[False]["table"],
                  results[False]["updates"])
    result.tables.append(table)
    result.record(
        "table_reduction", results[False]["table"] / max(1, results[True]["table"]),
        expect=(32.0, 128.0),
    )
    result.record(
        "aggregated_updates", results[True]["updates"], expect=(0, 2)
    )
    result.record(
        "leaky_updates", results[False]["updates"], expect=(50, 10**6)
    )
    return result


def run_route_server_study(n_providers: int = 12, seed: int = 7) -> ExperimentResult:
    """Route-server ablation: bilateral full mesh (O(N²) sessions) vs
    route-server peering (O(N)), with equal reachability."""
    configs = {}
    for full_mesh in (True, False):
        engine = Engine()
        exchange = ExchangePoint(
            engine, sink=MemoryLog(), full_mesh=full_mesh
        )
        exchange.route_server.readvertise = not full_mesh
        routers = []
        for i in range(n_providers):
            router = Router(
                engine, asn=100 + i, router_id=(10 << 24) + i + 1,
                mrai_interval=5.0, rng=random.Random(seed + i),
            )
            router.originate(Prefix((30 << 24) + i * 65536, 16))
            exchange.attach_provider(router)
            routers.append(router)
        engine.run_until(300.0)
        # Reachability: every provider sees every other's prefix.
        reachable = sum(
            1
            for router in routers
            for other in routers
            if other is not router
            and router.loc_rib.best(other.originated[0]) is not None
        )
        configs[full_mesh] = dict(
            sessions=exchange.session_count,
            reachable=reachable,
        )
    result = ExperimentResult(
        "ablation-routeserver",
        "Exchange peering: O(N^2) bilateral mesh vs O(N) route server",
    )
    expected_pairs = n_providers * (n_providers - 1)
    table = Table(
        "Route-server ablation",
        ["configuration", "sessions", "reachable provider pairs"],
    )
    table.add_row("bilateral full mesh", configs[True]["sessions"],
                  configs[True]["reachable"])
    table.add_row("route server", configs[False]["sessions"],
                  configs[False]["reachable"])
    result.tables.append(table)
    result.record(
        "mesh_sessions",
        configs[True]["sessions"],
        expect=n_providers + n_providers * (n_providers - 1) // 2,
    )
    result.record(
        "server_sessions", configs[False]["sessions"], expect=n_providers
    )
    result.record(
        "mesh_reachability", configs[True]["reachable"], expect=expected_pairs
    )
    result.record(
        "server_reachability",
        configs[False]["reachable"],
        expect=expected_pairs,
    )
    return result


def run_synchronization_study(hours: float = 24.0) -> ExperimentResult:
    """Timer-jitter ablation on the Floyd–Jacobson model."""
    result = ExperimentResult(
        "ablation-sync",
        "Self-synchronization of unjittered 30-second timers",
    )
    table = Table(
        "Synchronization ablation",
        ["jitter", "seed", "final phase coherence"],
    )
    unjittered = []
    jittered = []
    for seed in (3, 7, 11):
        for jitter, bucket in ((0.0, unjittered), (0.25, jittered)):
            study = SynchronizationStudy(jitter=jitter, seed=seed)
            study.advance(hours * 3600.0)
            coherence = study.final_coherence()
            bucket.append(coherence)
            table.add_row(str(jitter), seed, round(coherence, 3))
    result.tables.append(table)
    result.record(
        "unjittered_min_coherence", min(unjittered), expect=(0.9, 1.0)
    )
    result.record(
        "jittered_max_coherence", max(jittered), expect=(0.0, 0.8)
    )
    return result


def run_cache_study(seed: int = 8, duration: float = 1800.0) -> ExperimentResult:
    """Router-architecture ablation: route-caching line cards vs the
    "new generation of routers that ... maintain the full routing table
    in memory on the forwarding hardware" (§3), under identical
    instability and identical traffic.
    """
    from ..sim.router import RouteCache
    from ..sim.trafficgen import ForwardingWorkload

    results = {}
    prefixes = [Prefix((60 << 24) + i * 256, 24) for i in range(200)]
    window = 300.0
    for cached in (True, False):
        engine = Engine()
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
        # Phase A: fill the cache.
        filler = ForwardingWorkload(
            engine, forwarding, prefixes, rate=200.0,
            rng=random.Random(seed),
        )
        filler.start()
        engine.run_until(engine.now + 120.0)
        filler.stop()
        # Phase B: a quiet measurement window.
        quiet = ForwardingWorkload(
            engine, forwarding, prefixes, rate=200.0,
            rng=random.Random(seed + 1),
        )
        quiet.start()
        engine.run_until(engine.now + window)
        quiet.stop()
        # Phase C: identical window under instability.
        rng = random.Random(seed + 2)
        t = engine.now
        while t < engine.now + window:
            t += rng.expovariate(1 / 2.0)
            engine.schedule_at(
                t, origin.flap_origin, rng.choice(prefixes), 3.0
            )
        unstable = ForwardingWorkload(
            engine, forwarding, prefixes, rate=200.0,
            rng=random.Random(seed + 3),
        )
        unstable.start()
        engine.run_until(engine.now + window)
        unstable.stop()
        results[cached] = dict(
            quiet=quiet.stats,
            unstable=unstable.stats,
            invalidations=cache.invalidations if cache else 0,
        )
    result = ExperimentResult(
        "ablation-cache",
        "Route-cache architecture vs full-table forwarding",
    )
    table = Table(
        "Cache ablation (equal quiet vs unstable windows)",
        [
            "architecture",
            "quiet misses",
            "unstable misses",
            "quiet loss",
            "unstable loss",
        ],
    )
    for cached, label in ((True, "route-caching line card"),
                          (False, "full-table forwarding")):
        data = results[cached]
        quiet_misses = data["quiet"].delivered_slow
        unstable_misses = data["unstable"].delivered_slow
        table.add_row(
            label,
            quiet_misses,
            unstable_misses,
            round(data["quiet"].loss_rate, 4),
            round(data["unstable"].loss_rate, 4),
        )
    result.tables.append(table)
    cached_data = results[True]
    result.record(
        "instability_churns_cache",
        cached_data["unstable"].delivered_slow
        / max(1, cached_data["quiet"].delivered_slow),
        expect=(3.0, float("inf")),
    )
    result.record(
        "cache_invalidations", cached_data["invalidations"],
        expect=(50, 10**9),
    )
    result.record(
        "instability_causes_loss",
        cached_data["unstable"].loss_rate
        / max(cached_data["quiet"].loss_rate, 1e-9),
        expect=(1.0, float("inf")),
    )
    result.notes.append(
        "The full-table router misses by definition (every lookup is a "
        "RIB lookup) but its behaviour is churn-independent — the "
        "paper's 'new generation' architecture."
    )
    return result


def run_convergence_study(seed: int = 9) -> ExperimentResult:
    """Convergence-time study: how long the network chatters after one
    legitimate topology change, as a function of the MRAI setting —
    the paper's "delays in the time for network convergence" effect,
    measured.
    """
    from ..analysis.convergence import ConvergenceProbe
    from ..sim.routeserver import RouteServer

    results = {}
    for mrai in (5.0, 30.0):
        engine = Engine()
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
        for i in range(10):
            engine.schedule(
                i * 400.0 + rng.uniform(0, 50.0),
                probe.flap, origin, prefix, 2 * mrai,
            )
        engine.run_until(engine.now + 10 * 400.0 + 600.0)
        results[mrai] = probe.report()
    result = ExperimentResult(
        "ablation-convergence",
        "Convergence time after a topology change vs MRAI setting",
    )
    table = Table(
        "Convergence study",
        ["MRAI (s)", "events", "mean settle (s)", "worst settle (s)"],
    )
    for mrai, report in results.items():
        table.add_row(
            mrai, report.count, round(report.mean, 1),
            round(report.worst, 1),
        )
    result.tables.append(table)
    result.record(
        "fast_timer_mean_settle", results[5.0].mean, expect=(1.0, 60.0)
    )
    result.record(
        "slow_timer_mean_settle", results[30.0].mean, expect=(10.0, 240.0)
    )
    result.record(
        "mrai_slows_convergence",
        results[30.0].mean / max(results[5.0].mean, 1e-6),
        expect=(1.2, float("inf")),
    )
    result.record(
        "events_observed",
        results[5.0].count + results[30.0].count,
        expect=(12, 20),
    )
    return result


def run_filter_study(seed: int = 10, duration: float = 3600.0) -> ExperimentResult:
    """Prefix-length filtering: the "draconian" stability enforcement.

    §3: "A number of ISPs have implemented a more draconian version of
    enforcing stability by filtering all route announcements longer
    than a given prefix length."  The trade-off measured here: a
    filtering router sees far fewer flap updates from long-prefix
    (customer-sized) routes — but also loses reachability to every
    multi-homed /24 behind the filter.
    """
    from ..bgp.policy import MatchCondition, PolicyTerm, RouteMap

    short_prefixes = [Prefix((70 + i) << 24, 8) for i in range(4)]
    long_prefixes = [
        Prefix((80 << 24) + i * 256, 24) for i in range(40)
    ]
    results = {}
    for filtered in (False, True):
        engine = Engine()
        origin = Router(engine, asn=100, router_id=1, mrai_interval=10.0)
        import_policy = None
        if filtered:
            import_policy = RouteMap(
                [
                    PolicyTerm(
                        MatchCondition(
                            prefixes=(Prefix(0, 0),), ge=0, le=20
                        )
                    ),
                ],
                name="le-20-only",
            )
        observer = Router(
            engine, asn=200, router_id=2, mrai_interval=10.0,
            import_policy=import_policy,
        )
        connect(origin, observer)
        for prefix in short_prefixes + long_prefixes:
            origin.originate(prefix)
        engine.run_until(90.0)
        updates_before = observer.updates_received
        rng = random.Random(seed)
        t = engine.now
        for _ in range(80):
            t += rng.expovariate(1 / 30.0)
            engine.schedule_at(
                t, origin.flap_origin, rng.choice(long_prefixes), 25.0
            )
        engine.run_until(engine.now + duration)
        reachable_long = sum(
            1
            for prefix in long_prefixes
            if observer.loc_rib.best(prefix) is not None
        )
        reachable_short = sum(
            1
            for prefix in short_prefixes
            if observer.loc_rib.best(prefix) is not None
        )
        results[filtered] = dict(
            table=len(observer.loc_rib),
            reachable_long=reachable_long,
            reachable_short=reachable_short,
        )
    result = ExperimentResult(
        "ablation-filter",
        "Prefix-length filtering: stability vs reachability",
    )
    table = Table(
        "Prefix-length filter ablation",
        ["configuration", "table size", "/24s reachable", "/8s reachable"],
    )
    table.add_row(
        "no filter", results[False]["table"],
        results[False]["reachable_long"], results[False]["reachable_short"],
    )
    table.add_row(
        "filter > /20", results[True]["table"],
        results[True]["reachable_long"], results[True]["reachable_short"],
    )
    result.tables.append(table)
    result.record(
        "filtered_table_shrinks",
        results[False]["table"] / max(1, results[True]["table"]),
        expect=(5.0, 50.0),
    )
    result.record(
        "short_prefixes_survive_filter",
        results[True]["reachable_short"],
        expect=len(short_prefixes),
    )
    result.record(
        "long_prefixes_lost_to_filter",
        results[True]["reachable_long"],
        expect=(0, 0),
    )
    result.notes.append(
        "The filter removes the flapping /24s' update load entirely - "
        "by removing the /24s: the paper's 'artificial connectivity "
        "problems' made concrete."
    )
    return result


def run_storm_study(seed: int = 1) -> ExperimentResult:
    """Keepalive-priority ablation on the flap-storm scenario."""
    cpu = dict(per_update=0.1, per_sent_update=0.05, per_dump_route=0.05)
    kwargs = dict(
        n_routers=5, prefixes_per_router=40, hold_time=30.0, seed=seed
    )
    vulnerable = FlapStormScenario(
        cpu=CpuModel(**cpu), keepalive_priority=False, **kwargs
    )
    protected = FlapStormScenario(
        cpu=CpuModel(**cpu), keepalive_priority=True, **kwargs
    )
    storm = vulnerable.storm(flaps=600, over_seconds=20.0)
    calm = protected.storm(flaps=600, over_seconds=20.0)
    result = ExperimentResult(
        "ablation-storm",
        "Route-flap storms and the keepalive-priority fix",
    )
    table = Table(
        "Storm ablation",
        ["configuration", "session drops", "updates sent"],
    )
    table.add_row("FIFO keepalives", storm.session_drops,
                  storm.total_updates_sent)
    table.add_row("prioritized keepalives", calm.session_drops,
                  calm.total_updates_sent)
    result.tables.append(table)
    result.record("storm_session_drops", storm.session_drops, expect=(10, 10**6))
    result.record(
        "containment_factor",
        storm.session_drops / max(1, calm.session_drops),
        expect=(4.0, float("inf")),
    )
    return result
