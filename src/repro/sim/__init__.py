"""Discrete-event simulation substrate: engine, timers, links, routers,
route servers, IGP interaction, fault injection, storms, and the
Floyd-Jacobson synchronization model.

The unified entry point is :func:`simulate` — named scenarios on named
engines (``calendar``, ``reference``, or the partitioned ``parallel``
driver), all implementing the :class:`EventScheduler` protocol and all
digest-compatible on equal configurations."""

from .engine import Engine, EventHandle, SimulationError
from .refengine import ReferenceEngine
from .scheduler import EventScheduler
from .timers import DEFAULT_MRAI, IntervalTimer, MraiBatcher
from .link import CsuLink, Link
from .router import CpuModel, RouteCache, Router, connect
from .routeserver import RouteServer
from .igp import IgpBgpRedistribution, IgpTable, RouteSource
from .faults import (
    CustomerFlapGenerator,
    MisconfiguredProvider,
)
from .flapstorm import FlapStormScenario, StormResult
from .sync import PeriodicRouter, SynchronizationStudy, phase_coherence
from .trafficgen import ForwardingWorkload, TrafficStats
from .partition import (
    ExchangeDayConfig,
    ExchangePartition,
    InlineChannel,
    min_lookahead,
    partition_digest,
)
from .parallel import ParallelDriver, ParallelResult, ParallelSimError
from .adversary import (
    ATTACK_KINDS,
    AdversaryConfig,
    install_adversary,
    pulse_times,
    scenario_relationships,
)
from .scenarios import (
    DAY_SCENARIOS,
    SCENARIOS,
    SimResult,
    adversary_day_config,
    day_config,
    day_scenario_config,
    run_exchange_day,
    run_exchange_day_records,
    simulate,
)

__all__ = [
    "Engine",
    "EventHandle",
    "EventScheduler",
    "ReferenceEngine",
    "SimulationError",
    "DEFAULT_MRAI",
    "IntervalTimer",
    "MraiBatcher",
    "CsuLink",
    "Link",
    "CpuModel",
    "RouteCache",
    "Router",
    "connect",
    "RouteServer",
    "IgpBgpRedistribution",
    "IgpTable",
    "RouteSource",
    "CustomerFlapGenerator",
    "MisconfiguredProvider",
    "FlapStormScenario",
    "StormResult",
    "PeriodicRouter",
    "SynchronizationStudy",
    "phase_coherence",
    "ForwardingWorkload",
    "TrafficStats",
    "ExchangeDayConfig",
    "ExchangePartition",
    "InlineChannel",
    "min_lookahead",
    "partition_digest",
    "ParallelDriver",
    "ParallelResult",
    "ParallelSimError",
    "ATTACK_KINDS",
    "AdversaryConfig",
    "install_adversary",
    "pulse_times",
    "scenario_relationships",
    "DAY_SCENARIOS",
    "SCENARIOS",
    "SimResult",
    "adversary_day_config",
    "day_config",
    "day_scenario_config",
    "run_exchange_day",
    "run_exchange_day_records",
    "simulate",
]
