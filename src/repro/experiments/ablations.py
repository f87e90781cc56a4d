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

Each study but the timer-jitter one measures the arms of its
``ablation_*`` scenario (:mod:`repro.sim.studies`); the jitter study
runs the router-free oscillator of :mod:`repro.sim.sync`.
"""

from __future__ import annotations

from ..core.report import ExperimentResult, Table
from ..sim.engine import Engine
from ..sim.studies import (
    ablation_aggregation,
    ablation_cache,
    ablation_convergence,
    ablation_damping,
    ablation_filter,
    ablation_routeserver,
    ablation_storm,
)
from ..sim.sync import SynchronizationStudy

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


def run_damping_study() -> ExperimentResult:
    """Flap-damping ablation: update suppression vs reachability."""
    results = {
        damped: dict(world.readings, updates=len(world.sink))
        for damped, world in ablation_damping(Engine).items()
    }
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


def run_aggregation_study(seed: int = 6) -> ExperimentResult:
    """Aggregation ablation: a /16 supernet vs leaked customer /24s."""
    arms = ablation_aggregation(Engine, seed=seed)
    results = {
        aggregated: dict(world.readings, updates=len(world.sink))
        for aggregated, world in arms.items()
    }
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


def run_route_server_study() -> ExperimentResult:
    """Route-server ablation: O(N²) bilateral sessions vs O(N)."""
    arms = ablation_routeserver(Engine)
    configs = {mesh: world.readings for mesh, world in arms.items()}
    n_providers = len(arms[True].routers) - 1  # less the route server
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


def run_cache_study(seed: int = 8) -> ExperimentResult:
    """Router-architecture ablation: route-caching line cards vs the
    "new generation of routers that ... maintain the full routing table
    in memory on the forwarding hardware" (§3)."""
    results = {
        cached: world.readings
        for cached, world in ablation_cache(Engine, seed=seed).items()
    }
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
    """Convergence-time study: the paper's "delays in the time for
    network convergence" as a function of the MRAI setting."""
    results = {
        mrai: world.readings["report"]
        for mrai, world in ablation_convergence(Engine, seed=seed).items()
    }
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


def run_filter_study(seed: int = 10) -> ExperimentResult:
    """Prefix-length filtering: §3's "more draconian version of
    enforcing stability by filtering all route announcements longer
    than a given prefix length" trades reachability for stability."""
    results = {
        filtered: world.readings
        for filtered, world in ablation_filter(Engine, seed=seed).items()
    }
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
        expect=results[False]["reachable_short"],
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
    """Keepalive-priority ablation on the flap-storm mesh."""
    arms = ablation_storm(Engine, seed=seed)
    storm, calm = (
        arms[priority].readings["storm"] for priority in (False, True)
    )
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
