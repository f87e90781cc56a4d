"""The experiment registry: every table/figure/study by id.

Each entry is an :class:`ExperimentSpec` — id, human title, the
paper-context line shown in generated reports, and a runner taking an
optional :class:`~repro.campaign.config.CampaignConfig` (the unified
way to re-seed an experiment; ``None`` keeps the experiment's
published defaults).  The CLI, the benchmark harness, the examples,
and EXPERIMENTS.md generation all read from this one table — the
paper-context strings live nowhere else.

``run_experiment`` / ``experiment_ids`` are thin views over the specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..analysis.detection import detect_records_columnar
from ..core.report import ExperimentResult
from ..sim.adversary import scenario_relationships
from ..sim.engine import Engine
from ..sim.scenarios import (
    adversary_day_config,
    run_exchange_day_records,
    simulate,
)
from . import (
    ablations,
    crossexchange,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    pathology,
    table1,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cost
    from ..campaign.config import CampaignConfig

__all__ = [
    "ExperimentSpec",
    "SPECS",
    "run_experiment",
    "experiment_ids",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment."""

    id: str
    title: str
    paper_context: str
    runner: Callable[[Optional["CampaignConfig"]], ExperimentResult]

    def run(
        self, config: Optional["CampaignConfig"] = None
    ) -> ExperimentResult:
        """Run the experiment (``config`` overrides the default seed)."""
        return self.runner(config)


def _seeded(fn: Callable[..., ExperimentResult], default_seed: int):
    """Adapt a ``run(seed=...)`` runner to the spec signature: the
    config's seed wins when a config is given."""

    def runner(config: Optional["CampaignConfig"] = None) -> ExperimentResult:
        return fn(seed=default_seed if config is None else config.seed)

    return runner


def _sim_scenario(name: str):
    """Adapt a named simulator scenario (see
    :mod:`repro.sim.scenarios`) to the spec signature: run it at smoke
    scale on the calendar and reference engines and check digest
    agreement — plus the parallel driver on the partitionable day."""

    def runner(config: Optional["CampaignConfig"] = None) -> ExperimentResult:
        seed = None if config is None else config.seed
        calendar = simulate(name, engine="calendar", smoke=True, seed=seed)
        reference = simulate(name, engine="reference", smoke=True, seed=seed)
        result = ExperimentResult(
            experiment_id=f"sim-{name}",
            description=f"simulator scenario '{name}' (smoke scale)",
        )
        result.record("events", calendar.events)
        result.record(
            "engines_agree",
            int(calendar.digest == reference.digest),
            expect=1,
        )
        if name == "multi_exchange_day":
            parallel = simulate(
                name, engine="parallel", workers=2, smoke=True, seed=seed
            )
            result.record(
                "parallel_agrees",
                int(parallel.digest == calendar.digest),
                expect=1,
            )
            result.record("parallel_windows", parallel.windows)
        result.notes.append(f"run digest {calendar.digest[:16]}")
        return result

    return runner


#: Each attack's signature detection flag — the one headline counter
#: that must be non-zero for the scenario to count as detected.
_ATTACK_SIGNATURE = {
    "hijack_moas": "moas_conflict",
    "hijack_subprefix": "subprefix_foreign",
    "route_leak": "valley_violation",
    "path_forgery": "forged_edge",
    "deagg_storm": "subprefix_deagg",
}


def _adversary_scenario(kind: str):
    """Adapt an adversarial day scenario to the spec signature.

    Runs the scenario at smoke scale on the calendar engine, checks
    digest agreement with the reference engine and the 2-worker
    parallel driver, runs the detection tier over the merged record
    stream as one batch and cut at the midpoint (the cross-batch carry
    must not change a flag), and asserts the attack's signature flag
    actually fired.
    """

    def runner(config: Optional["CampaignConfig"] = None) -> ExperimentResult:
        seed = None if config is None else config.seed
        day = adversary_day_config(kind, smoke=True, seed=seed)
        events, digest, records = run_exchange_day_records(Engine, day)
        reference = simulate(kind, engine="reference", smoke=True, seed=seed)
        parallel = simulate(
            kind, engine="parallel", workers=2, smoke=True, seed=seed
        )
        topology = scenario_relationships(day)
        detection = detect_records_columnar(records, topology)
        halved = detect_records_columnar(
            records, topology, boundaries=(len(records) // 2,)
        )
        result = ExperimentResult(
            experiment_id=f"sim-{kind}",
            description=f"adversarial scenario '{kind}' (smoke scale)",
        )
        result.record("events", events)
        result.record("updates_observed", len(records))
        result.record(
            "engines_agree", int(digest == reference.digest), expect=1
        )
        result.record(
            "parallel_agrees", int(digest == parallel.digest), expect=1
        )
        result.record(
            "detection_batchings_agree",
            int(
                detection.flags == halved.flags
                and detection.detector.state_digest()
                == halved.detector.state_digest()
            ),
            expect=1,
        )
        for name, count in detection.counts.items():
            if count:
                result.record(f"flag_{name}", count)
        signature = _ATTACK_SIGNATURE[kind]
        result.record(
            "signature_detected",
            int(detection.counts[signature] > 0),
            expect=1,
        )
        result.notes.append(f"signature flag: {signature}")
        result.notes.append(f"run digest {digest[:16]}")
        return result

    return runner


def _unseeded(fn: Callable[[], ExperimentResult]):
    """Adapt a zero-argument runner (ignores any config)."""

    def runner(config: Optional["CampaignConfig"] = None) -> ExperimentResult:
        return fn()

    return runner


_SPEC_LIST = [
    ExperimentSpec(
        "table1",
        "Announcement/withdrawal asymmetry per ISP",
        "Most ISPs withdraw >>10x what they announce; ISP-I: 259 "
        "announced / 2,479,023 withdrawn / 14,112 unique prefixes.",
        _seeded(table1.run, 7),
    ),
    ExperimentSpec(
        "figure1",
        "The five instrumented exchange points",
        "Five U.S. exchange points; Mae-East largest (60+ providers, "
        "route servers peer with >90%).",
        _unseeded(figure1.run),
    ),
    ExperimentSpec(
        "figure2",
        "Monthly update mix by taxonomy category",
        "AADup and WADup consistently dominate the non-WWDup "
        "update mix, April-September.",
        _seeded(figure2.run, 3),
    ),
    ExperimentSpec(
        "figure3",
        "Instability time series with diurnal structure",
        "Diurnal + weekend structure; late-May upgrade lines; 10am "
        "maintenance line; threshold 345->770 per 10-min bin.",
        _seeded(figure3.run, 3),
    ),
    ExperimentSpec(
        "figure4",
        "One week of updates, hour by hour",
        "Bell-shaped weekday curves, quiet weekends, a localized "
        "Saturday spike (Aug 3-9, 1996).",
        _seeded(figure4.run, 3),
    ),
    ExperimentSpec(
        "figure5",
        "Spectral analysis: 24-hour and 7-day lines",
        "FFT and MEM spectra agree on significant frequencies at "
        "24 hours and 7 days; SSA's top five lines confirm.",
        _seeded(figure5.run, 3),
    ),
    ExperimentSpec(
        "figure6",
        "Update share vs routing-table share per AS",
        "Update share uncorrelated with routing-table share; no "
        "consistent dominator AS in any category.",
        _seeded(figure6.run, 3),
    ),
    ExperimentSpec(
        "figure7",
        "Instability concentration across Prefix+AS pairs",
        "80-100% of daily instability from Prefix+AS pairs seen "
        "<50 times; WADiff plateaus fastest; Aug-11 dominator day.",
        _seeded(figure7.run, 4),
    ),
    ExperimentSpec(
        "figure8",
        "Inter-arrival histograms: the 30s/1m timer lines",
        "30-second and 1-minute bins hold ~half the inter-arrival "
        "mass in every category.",
        _seeded(figure8.run, 4),
    ),
    ExperimentSpec(
        "figure9",
        "Daily fraction of routes affected",
        "3-10% of routes see a WADiff per day, 5-20% an AADiff; "
        "35-100% (median 50%) see some update; >80% stable.",
        _seeded(figure9.run, 3),
    ),
    ExperimentSpec(
        "figure10",
        "Multi-homed prefix growth",
        "Multi-homed prefixes grow ~linearly April-December; "
        ">25% of prefixes multi-homed; late-May spike; data gap.",
        _seeded(figure10.run, 3),
    ),
    ExperimentSpec(
        "pathology",
        "Pathological update volumes and the stateless fix",
        "3-6M updates/day vs 42k prefixes; 0.5-6M WWDups/day; "
        "~99% pathological; stateless fix: 2M -> 1905 "
        "withdrawals; 300 updates/s crashes a router.",
        _seeded(pathology.run, 3),
    ),
    ExperimentSpec(
        "crossexchange",
        "Cross-exchange consistency of the category mix",
        "Results at one exchange are representative of "
        "the others - same category mix, different "
        "volumes (section 5).",
        _seeded(crossexchange.run, 3),
    ),
    ExperimentSpec(
        "ablation-damping",
        "Route-flap damping ablation",
        "Damping suppresses flap updates but delays "
        "legitimate re-announcements (section 3).",
        _unseeded(ablations.run_damping_study),
    ),
    ExperimentSpec(
        "ablation-aggregation",
        "CIDR aggregation ablation",
        "Aggregation hides customer instability "
        "inside supernets (sections 3, 4.1).",
        _seeded(ablations.run_aggregation_study, 6),
    ),
    ExperimentSpec(
        "ablation-routeserver",
        "Route-server vs full-mesh ablation",
        "Route servers reduce O(N^2) bilateral "
        "sessions to O(N) (section 3).",
        _unseeded(ablations.run_route_server_study),
    ),
    ExperimentSpec(
        "ablation-sync",
        "Timer self-synchronization ablation",
        "Unjittered periodic timers self-synchronize "
        "(Floyd-Jacobson; section 4.2).",
        _unseeded(ablations.run_synchronization_study),
    ),
    ExperimentSpec(
        "ablation-storm",
        "Flap-storm containment ablation",
        "Keepalive prioritization contains route-flap "
        "storms (section 3).",
        _seeded(ablations.run_storm_study, 1),
    ),
    ExperimentSpec(
        "ablation-cache",
        "Route-cache churn ablation",
        "Instability churns route caches, causing misses "
        "and packet loss; full-table forwarding hardware "
        "is churn-immune (section 3).",
        _seeded(ablations.run_cache_study, 8),
    ),
    ExperimentSpec(
        "ablation-convergence",
        "MRAI / convergence-delay ablation",
        "Instability delays network convergence; "
        "the MRAI setting trades update volume "
        "against settle time (sections 1, 6).",
        _seeded(ablations.run_convergence_study, 9),
    ),
    ExperimentSpec(
        "ablation-filter",
        "Long-prefix filtering ablation",
        "Filtering long prefixes trades away multi-homed\n"
        "reachability for stability (section 3).",
        _seeded(ablations.run_filter_study, 10),
    ),
    ExperimentSpec(
        "sim-sync_population",
        "Simulator scenario: interval-timer population",
        "Unjittered 30 s timers in phase cohorts with hold-timer "
        "resets and churn (section 4.2) — the calendar queue's "
        "headline workload.",
        _sim_scenario("sync_population"),
    ),
    ExperimentSpec(
        "sim-flap_storm",
        "Simulator scenario: route-flap storm cascade",
        "A CPU-limited router mesh cascading under a flap burst "
        "(section 3) — the adaptive scheduler's heap-fallback "
        "workload.",
        _sim_scenario("flap_storm"),
    ),
    ExperimentSpec(
        "sim-table_dump",
        "Simulator scenario: repeated table dumps",
        "Session bounces re-dumping identical tables over the wire "
        "(section 3) — the memoized codec's workload.",
        _sim_scenario("table_dump"),
    ),
    ExperimentSpec(
        "sim-multi_exchange_day",
        "Simulator scenario: partitioned multi-exchange day",
        "Providers attending several exchanges, customer flaps "
        "propagating between them after backbone latency (section 5) "
        "— the parallel driver's scenario, checked against the "
        "single-engine oracle.",
        _sim_scenario("multi_exchange_day"),
    ),
    ExperimentSpec(
        "sim-hijack_moas",
        "Adversarial scenario: exact-prefix MOAS hijack",
        "An attacker provider originates the victim's exact prefixes; "
        "the MOAS-conflict counter flags every concurrent-origin "
        "announcement (the classic hijack signature).",
        _adversary_scenario("hijack_moas"),
    ),
    ExperimentSpec(
        "sim-hijack_subprefix",
        "Adversarial scenario: more-specific sub-prefix hijack",
        "The attacker announces more-specifics of the victim's "
        "covering prefixes; longest-match steals the traffic and the "
        "foreign-sub-prefix flag fires on every pulse.",
        _adversary_scenario("hijack_subprefix"),
    ),
    ExperimentSpec(
        "sim-route_leak",
        "Adversarial scenario: route leak through transit",
        "A provider re-exports a provider-learned route sideways; the "
        "valley-free (Gao-Rexford) classifier flags the leaked paths "
        "given the declared AS relationships.",
        _adversary_scenario("route_leak"),
    ),
    ExperimentSpec(
        "sim-path_forgery",
        "Adversarial scenario: AS-path forgery",
        "The attacker forges the victim's origin into its own "
        "announcements; the forged adjacency is absent from the "
        "declared topology and trips the forged-edge check.",
        _adversary_scenario("path_forgery"),
    ),
    ExperimentSpec(
        "sim-deagg_storm",
        "Adversarial scenario: deaggregation storm",
        "A misconfigured provider floods more-specifics of its own "
        "aggregates — misconfiguration storm material (section 7), "
        "deaggregation rather than hijack.",
        _adversary_scenario("deagg_storm"),
    ),
]

#: Experiment id → spec, paper order first.
SPECS: Dict[str, ExperimentSpec] = {spec.id: spec for spec in _SPEC_LIST}


def experiment_ids() -> List[str]:
    """All registered experiment ids, paper order first."""
    return list(SPECS)


def run_experiment(
    experiment_id: str, config: Optional["CampaignConfig"] = None
) -> ExperimentResult:
    """Run one experiment by id; raises KeyError for unknown ids.

    ``config`` (optional) re-parameterizes the run — its seed replaces
    the experiment's default.
    """
    try:
        spec = SPECS[experiment_id]
    except KeyError:
        known = ", ".join(SPECS)
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return spec.run(config)
