"""Named simulation scenarios and the :func:`simulate` façade.

Every simulator workload the repo measures or tests lives here, keyed
by name, runnable on any :class:`~repro.sim.scheduler.EventScheduler`
implementation:

- ``sync_population`` — the §4.2 timer population: phase-cohort
  unjittered 30 s interval timers, a jittered minority, the BGP
  hold-timer reset pattern (lazy-cancelled timeouts), periodic
  stop/start churn.
- ``flap_storm`` — the §3 router-mesh cascade
  (:class:`~repro.sim.flapstorm.FlapStormScenario`).
- ``table_dump`` — a hub re-dumping its table over ``wire=True`` links
  through forced session bounces (the memoized codec's target).
- ``multi_exchange_day`` — the partitionable multi-exchange day
  (:mod:`repro.sim.partition`).
- ``cross_exchange_day`` — the §5 cross-exchange study: the same day
  with a full provider mesh at three exchanges and half the providers
  stateless, whose per-exchange logs ``crossexchange`` compares.
- ``hijack_moas`` / ``hijack_subprefix`` / ``route_leak`` /
  ``path_forgery`` / ``deagg_storm`` — the adversarial pack
  (:mod:`repro.sim.adversary`): the same day with a seeded attacker
  riding on it.
- ``stateless_exchange`` (Table 1), ``timer_lines`` (Figure 8's
  mechanism tier), ``stateless_fix`` (§4.2), ``update_crash`` (§6),
  ``core_exchange`` (Figure 10) and the ``ablation_*`` countermeasure
  studies, both arms of each — the study family: one builder of
  :mod:`repro.sim.studies` each, which its experiment measures on the
  calendar engine and this registry digests on any.

The day-family scenarios (``multi_exchange_day``,
``cross_exchange_day`` and the adversarial pack) are partition-safe
and therefore also legal on the ``parallel`` engine.

:func:`simulate` is the single entry point (scenario names accept
``-`` for ``_``, so ``hijack-moas`` works from the command line):

    >>> simulate("flap_storm", engine="reference", smoke=True)
    >>> simulate("multi_exchange_day", engine="parallel", workers=4)
    >>> simulate("hijack-moas", engine="parallel", workers=2, smoke=True)

Scenario runners return ``(events, digest)`` where the digest covers
the full observable outcome (event counts, clocks, route state,
firing counts), so two engines agree on a scenario iff their digests
are equal — the property the differential benchmark and the
equivalence tests are built on.  Runners accept an optional ``seed``;
``None`` keeps each scenario's published default draws (the pinned
golden digests).

Module-level imports cover only the registry, the façade and
``sync_population``: the engines, the timers, the attack kinds and the
router-free digests.  Every other family imports its own machinery at
the top of its runner (``flap_storm`` the flap-storm mesh,
``table_dump`` routers and links, the day family the partition module,
the study family its builders, ``engine="parallel"`` the driver), so
``import repro.sim`` compiles no router, BGP session or
``multiprocessing``.  ``partition_digest`` and
``combined_digest`` stay module attributes that the day runners look
up at call time, which is where ``perf/`` wraps them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from .adversary import ATTACK_KINDS, AdversaryConfig
from .digests import combined_digest, partition_digest, rib_state_digest
from .engine import Engine, SimulationError
from .refengine import ReferenceEngine
from .timers import IntervalTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..collector.record import UpdateRecord
    from .partition import ExchangeDayConfig

__all__ = [
    "DAY_SCENARIOS",
    "SCENARIOS",
    "SEEDLESS",
    "SimResult",
    "adversary_day_config",
    "cross_exchange_config",
    "day_config",
    "day_scenario_config",
    "run_exchange_day",
    "run_exchange_day_records",
    "scenario_flap_storm",
    "scenario_sync_population",
    "scenario_table_dump",
    "simulate",
]

#: Scenario sizes: (full, smoke) — indexable by a bool.
_SYNC_TIMERS = (5000, 160)
_SYNC_HOLD_ACTORS = (9000, 80)
_SYNC_DURATION = (1200.0, 300.0)
_STORM_SIZE = ((8, 30, 150, 240.0), (4, 10, 40, 120.0))
_DUMP_SIZE = ((600, 12, 6), (120, 4, 2))

_PHASE_COHORTS = 8
_JITTERED_FRACTION = 0.025


def _noop() -> None:
    """The measured work is the timer machinery itself (fire_count)."""


class _HoldTimerActor:
    """The BGP hold-timer reset pattern: every keepalive cancels the
    pending timeout and schedules a fresh one — in steady state the
    timeout never fires and the queue fills with dead entries.

    The actor is its own timeout callback: a bound method would cost
    an allocation per keepalive, or a reference cycle if stored."""

    __slots__ = ("engine", "hold_time", "expired", "_pending")

    def __init__(self, engine, hold_time: float) -> None:
        self.engine = engine
        self.hold_time = hold_time
        self.expired = 0
        self._pending = None

    def keepalive(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
        self._pending = self.engine.schedule(self.hold_time, self)

    def __call__(self) -> None:
        self.expired += 1


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# scenario runners — (engine_cls, smoke, seed) -> (events, digest)
# ---------------------------------------------------------------------------

def scenario_sync_population(
    engine_cls, smoke: bool, seed: Optional[int] = None
):
    size = _SYNC_TIMERS[smoke]
    n_actors = _SYNC_HOLD_ACTORS[smoke]
    duration = _SYNC_DURATION[smoke]
    jitter_base = 1000 if seed is None else 1000 + seed * 100_003
    churn_seed = 7 if seed is None else seed
    engine = engine_cls()
    timers = []
    n_jittered = int(size * _JITTERED_FRACTION)
    for i in range(size):
        if i < n_jittered:
            timer = IntervalTimer(
                engine,
                30.0,
                _noop,
                jitter=0.25,
                rng=random.Random(jitter_base + i),
            )
        else:
            # Phase cohorts: hundreds of timers share each firing
            # instant — the unjittered vendor-timer population.
            timer = IntervalTimer(
                engine, 30.0, _noop, phase=float(i % _PHASE_COHORTS)
            )
        timer.start()
        timers.append(timer)

    # Hold-timer cohort: phase-aligned keepalives, each reset leaving
    # a dead 600 s timeout behind (the lazy-cancellation workload).
    actors = []
    for i in range(n_actors):
        actor = _HoldTimerActor(engine, hold_time=600.0)
        timer = IntervalTimer(
            engine, 30.0, actor.keepalive, phase=float(i % _PHASE_COHORTS)
        )
        timer.start()
        timers.append(timer)
        actors.append(actor)

    # Churn: every 300 s stop a seeded slice of the population and
    # restart it 60 s later, leaving cancelled handles in the queue.
    # The churn event is periodic: a closure that re-scheduled itself
    # by name would be a cycle left to the collector.
    churn_rng = random.Random(churn_seed)

    def churn():
        victims = churn_rng.sample(range(size), size // 10)
        for index in victims:
            timers[index].stop()
        engine.schedule(60.0, restart, tuple(victims))

    def restart(victims):
        for index in victims:
            timers[index].start()

    engine.schedule(300.0, churn).period = 300.0
    engine.run_until(duration)
    digest = _digest(
        engine.events_processed,
        round(engine.now, 9),
        tuple(t.fire_count for t in timers),
        tuple(a.expired for a in actors),
    )
    engine.close()
    return engine.events_processed, digest


def scenario_flap_storm(
    engine_cls, smoke: bool, seed: Optional[int] = None
):
    from .flapstorm import FlapStormScenario

    n_routers, per_router, flaps, observe = _STORM_SIZE[smoke]
    engine = engine_cls()
    scenario = FlapStormScenario(
        n_routers=n_routers,
        prefixes_per_router=per_router,
        seed=7 if seed is None else seed,
        engine=engine,
    )
    result = scenario.storm(
        flaps=flaps, over_seconds=10.0, observe_for=observe
    )
    rib_digests = tuple(
        rib_state_digest(router) for router in scenario.routers
    )
    digest = _digest(
        engine.events_processed,
        round(engine.now, 9),
        result.session_drops,
        result.total_updates_sent,
        result.crashes,
        tuple(round(t, 9) for t in result.drop_times),
        rib_digests,
    )
    return engine.events_processed, digest


def scenario_table_dump(
    engine_cls, smoke: bool, seed: Optional[int] = None
):
    from ..net.prefix import Prefix
    from .link import Link
    from .router import Router, connect

    # Fully deterministic — no draws, so ``seed`` has nothing to vary.
    n_prefixes, n_peers, bounces = _DUMP_SIZE[smoke]
    engine = engine_cls()
    hub = Router(engine, asn=100, router_id=(10 << 24) + 1)
    base = 20 * (1 << 24)
    for i in range(n_prefixes):
        hub.originate(Prefix(base + i * 256, 24))
    peers, links = [], []
    for i in range(n_peers):
        peer = Router(engine, asn=200 + i, router_id=(10 << 24) + 100 + i)
        link = Link(engine, delay=0.01, wire=True)
        connect(hub, peer, link=link)
        peers.append(peer)
        links.append(link)
    engine.run_until(120.0)
    # Bounce every session repeatedly: each re-establishment re-dumps
    # the identical table over the wire (memoized-encode territory).
    for cycle in range(bounces):
        at = engine.now
        for link in links:
            engine.schedule_at(at + 1.0, link.go_down)
            engine.schedule_at(at + 3.0, link.go_up)
        engine.run_until(at + 120.0)
    digest = _digest(
        engine.events_processed,
        round(engine.now, 9),
        tuple(rib_state_digest(peer) for peer in peers),
        tuple(link.bytes_carried for link in links),
        tuple(link.messages_delivered for link in links),
        tuple(link.messages_lost for link in links),
        hub.updates_sent,
        hub.suppressed_outputs,
    )
    return engine.events_processed, digest


def day_config(
    smoke: bool = False, seed: Optional[int] = None
) -> ExchangeDayConfig:
    """The multi-exchange-day presets: the full 5-exchange 90-provider
    day, or a minutes-long 3-exchange smoke configuration."""
    from .partition import ExchangeDayConfig

    base_seed = 7 if seed is None else seed
    if smoke:
        return ExchangeDayConfig(
            exchanges=3,
            providers=9,
            prefixes_per_provider=2,
            settle=60.0,
            duration=900.0,
            seed=base_seed,
            flap_rate=1.0 / 120.0,
            down_time=20.0,
        )
    return ExchangeDayConfig(seed=base_seed)


def cross_exchange_config(
    smoke: bool = False, seed: Optional[int] = None
) -> ExchangeDayConfig:
    """The §5 cross-exchange day: three exchanges, each home to three
    of nine providers, every provider meshed with the others it meets
    and every second one stateless.  Smoke keeps the population and
    shortens the day."""
    from .partition import ExchangeDayConfig

    return ExchangeDayConfig(
        exchanges=3,
        providers=9,
        prefixes_per_provider=2 if smoke else 20,
        settle=60.0 if smoke else 200.0,
        duration=300.0 if smoke else 7200.0,
        seed=3 if seed is None else seed,
        attend_probability=0.8,
        flap_rate=1.0 / 400.0,
        down_time=40.0,
        mrai_interval=15.0,
        full_mesh=True,
        stateless_fraction=0.5,
    )


def adversary_day_config(
    kind: str, smoke: bool = False, seed: Optional[int] = None
) -> ExchangeDayConfig:
    """A :func:`day_config` with a seeded attacker riding on it.

    The attacker is homed at the victim's exchange (provider index
    ``1 + exchanges`` has home ``1``), so the route server there
    always observes both origins concurrently — the MOAS conflict is
    structural, not a matter of attendance luck."""
    base = day_config(smoke, seed)
    if smoke:
        adversary = AdversaryConfig(
            kind=kind, victim=1, attacker=1 + base.exchanges
        )
    else:
        adversary = AdversaryConfig(
            kind=kind,
            victim=1,
            attacker=1 + base.exchanges,
            start=600.0,
            pulses=24,
            period=3600.0,
            up_time=900.0,
            subnets=4,
        )
    return replace(base, adversary=adversary)


def _attack_config_factory(kind: str) -> Callable:
    def factory(
        smoke: bool = False, seed: Optional[int] = None
    ) -> ExchangeDayConfig:
        return adversary_day_config(kind, smoke, seed)

    return factory


#: Day-family scenarios: name -> config factory ``(smoke, seed)``.
#: Everything here is partition-safe and legal on engine='parallel'.
DAY_SCENARIOS: Dict[str, Callable] = {
    "multi_exchange_day": day_config,
    "cross_exchange_day": cross_exchange_config,
}
for _kind in ATTACK_KINDS:
    DAY_SCENARIOS[_kind] = _attack_config_factory(_kind)
del _kind


def day_scenario_config(
    scenario: str, smoke: bool = False, seed: Optional[int] = None
) -> ExchangeDayConfig:
    """The :class:`ExchangeDayConfig` behind a day-family scenario."""
    name = scenario.replace("-", "_")
    if name not in DAY_SCENARIOS:
        known = ", ".join(DAY_SCENARIOS)
        raise SimulationError(
            f"{scenario!r} is not a day-family scenario (known: {known})"
        )
    return DAY_SCENARIOS[name](smoke, seed)


def _run_day(engine_cls, config: ExchangeDayConfig):
    """Build and run all partitions on one shared engine."""
    from .partition import ExchangePartition, InlineChannel

    engine = engine_cls()
    partitions = [
        ExchangePartition(config, index, engine)
        for index in range(config.exchanges)
    ]
    channel = InlineChannel(engine, partitions)
    for partition in partitions:
        partition.build(channel)
    engine.run_until(config.end_time)
    return engine, partitions


def day_records(partitions) -> List[UpdateRecord]:
    """All route-server observations of a day run, merged into one
    time-ordered stream.  Peer ids (router ids) are globally unique
    across exchanges, so the merge is a coherent multi-collector
    stream; the sort is stable over the exchange-ordered concatenation,
    so equal-time records keep a canonical order and the result is a
    pure function of the per-exchange logs."""
    merged: List[UpdateRecord] = []
    for partition in partitions:
        merged.extend(partition.sink.records)
    merged.sort(key=lambda record: record.time)
    return merged


def _day_digest(partitions) -> str:
    return combined_digest(
        {partition.index: partition_digest(partition)
         for partition in partitions}
    )


def run_exchange_day(engine_cls, config: ExchangeDayConfig):
    """Single-engine oracle run of the multi-exchange day: all
    partitions share one engine, cross-exchange directives delivered
    inline.  Returns ``(events, combined digest)`` — bit-comparable
    with a :class:`~repro.sim.parallel.ParallelResult` of the same
    config."""
    engine, partitions = _run_day(engine_cls, config)
    return engine.events_processed, _day_digest(partitions)


def run_exchange_day_records(engine_cls, config: ExchangeDayConfig):
    """Like :func:`run_exchange_day`, additionally returning the
    merged route-server record stream (the detection tier's input):
    ``(events, digest, records)``."""
    engine, partitions = _run_day(engine_cls, config)
    return (
        engine.events_processed,
        _day_digest(partitions),
        day_records(partitions),
    )


def _day_runner(name: str) -> Callable:
    def runner(engine_cls, smoke: bool, seed: Optional[int] = None):
        return run_exchange_day(
            engine_cls, day_scenario_config(name, smoke, seed)
        )

    return runner


def _study_outcome(built) -> Tuple[int, str]:
    """``(events, digest)`` of a study's world, or of its arms in
    order: each arm's clock, its routers' counters and RIBs, its
    route-server log and its readings."""
    arms = built if isinstance(built, dict) else {None: built}
    parts = [
        (arm, world.engine.events_processed, round(world.engine.now, 9),
         tuple((name, router.updates_sent, router.updates_received,
                router.crash_count, rib_state_digest(router))
               for name, router in world.routers.items()),
         tuple(world.sink.records), sorted(world.readings.items()))
        for arm, world in arms.items()
    ]
    return sum(part[1] for part in parts), _digest(*parts)


def _study(name: str) -> Callable:
    """The runner of a study family: the builder of that name in
    :mod:`repro.sim.studies`."""

    def runner(engine_cls, smoke: bool, seed: Optional[int] = None):
        from . import studies

        build = getattr(studies, name)
        return _study_outcome(build(engine_cls, smoke, seed))

    return runner


#: name -> runner, in presentation order.
SCENARIOS: Tuple[Tuple[str, Callable], ...] = (
    ("sync_population", scenario_sync_population),
    ("flap_storm", scenario_flap_storm),
    ("table_dump", scenario_table_dump),
    *((name, _day_runner(name)) for name in DAY_SCENARIOS),
    *((name, _study(name)) for name in (
        "stateless_exchange", "timer_lines", "stateless_fix", "update_crash",
        "core_exchange", "ablation_damping", "ablation_aggregation",
        "ablation_routeserver", "ablation_cache", "ablation_convergence",
        "ablation_filter", "ablation_storm",
    )),
)

_SCENARIO_MAP: Dict[str, Callable] = dict(SCENARIOS)

#: The families whose ``seed`` varies nothing: each makes no draws
#: (its runner or builder says so), so every seed gives one digest.
SEEDLESS = frozenset({
    "table_dump", "update_crash", "ablation_damping", "ablation_routeserver",
})

#: engine name -> engine class, for the single-engine modes.
ENGINES = {
    "calendar": Engine,
    "reference": ReferenceEngine,
}


@dataclass(slots=True, frozen=True)
class SimResult:
    """What one :func:`simulate` call produced."""

    scenario: str
    engine: str
    events: int
    digest: str
    workers: int = 1
    #: Conservative windows executed (parallel engine only).
    windows: int = 0


def simulate(
    scenario: str,
    *,
    engine: str = "calendar",
    workers: Optional[int] = None,
    smoke: bool = False,
    seed: Optional[int] = None,
) -> SimResult:
    """Run a named scenario on a named engine.

    ``engine`` is ``"calendar"`` (the adaptive calendar queue),
    ``"reference"`` (the heap oracle), or ``"parallel"`` (the
    conservative-lookahead partitioned driver — legal for every
    day-family scenario in :data:`DAY_SCENARIOS`, with ``workers``
    processes).  Equal configurations must yield equal digests across
    all three.  ``-`` and ``_`` are interchangeable in scenario names.
    """
    scenario = scenario.replace("-", "_")
    if scenario not in _SCENARIO_MAP:
        known = ", ".join(name for name, _ in SCENARIOS)
        raise SimulationError(
            f"unknown scenario {scenario!r} (known: {known})"
        )
    if engine == "parallel":
        if scenario not in DAY_SCENARIOS:
            known = ", ".join(DAY_SCENARIOS)
            raise SimulationError(
                "engine='parallel' requires a partitionable day-family "
                f"scenario ({known}); {scenario!r} is single-engine only"
            )
        from .parallel import ParallelDriver

        config = day_scenario_config(scenario, smoke, seed)
        with ParallelDriver(config, workers=workers) as driver:
            driver.run()
            result = driver.finish()
        return SimResult(
            scenario=scenario,
            engine=engine,
            events=result.events,
            digest=result.digest,
            workers=result.workers,
            windows=result.windows,
        )
    if engine not in ENGINES:
        known = ", ".join(sorted(ENGINES)) + ", parallel"
        raise SimulationError(
            f"unknown engine {engine!r} (known: {known})"
        )
    if workers is not None and workers > 1:
        raise SimulationError(
            f"engine={engine!r} is single-process; workers only apply "
            "to engine='parallel'"
        )
    events, digest = _SCENARIO_MAP[scenario](ENGINES[engine], smoke, seed)
    return SimResult(
        scenario=scenario, engine=engine, events=events, digest=digest
    )
