"""Discrete-event simulation substrate: engine, timers, links, routers,
route servers, IGP interaction, fault injection, storms, and the
Floyd-Jacobson synchronization model.

The unified entry point is :func:`simulate` — named scenarios on named
engines (``calendar``, ``reference``, or the partitioned ``parallel``
driver), all implementing the :class:`~repro.sim.scheduler.EventScheduler`
protocol and all digest-compatible on equal configurations.

The package re-exports only the names ``perf/`` reads from it (and
instruments there); everything else is imported from its module.
Importing it loads the engines, the timers, the scenario registry and
the attack configurations, and no router, partition, parallel driver
or BGP session: each scenario family imports that machinery when it
runs (see :mod:`repro.sim.scenarios`)."""

from .adversary import scenario_relationships
from .engine import Engine
from .scenarios import day_config, run_exchange_day_records, simulate

__all__ = [
    "Engine",
    "day_config",
    "run_exchange_day_records",
    "scenario_relationships",
    "simulate",
]
