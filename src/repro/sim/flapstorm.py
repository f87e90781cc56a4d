"""Route-flap storm dynamics.

The paper (§3): "a router which fails under heavy routing instability
can instigate a 'route flap storm.'  ...overloaded routers are marked
as unreachable by BGP peers as they fail to maintain the required
interval of Keep-Alive transmissions.  As routers are marked as
unreachable, peer routers will choose alternative paths... and will
transmit updates reflecting the change in topology to each of their
peers.  In turn, after recovering..., the 'down' router will attempt to
re-initiate a BGP peering session with each of its peer routers,
generating large state dump transmissions.  This increased load will
cause yet more routers to fail..."

:class:`FlapStormScenario` builds a full mesh of CPU-limited routers
carrying a route table, injects a seed burst of prefix flaps at one
router, and measures the cascade: session drops over time, update
volume, and whether prioritizing keepalives (the vendors' eventual fix,
modelled by exempting keepalives from the CPU queue) contains the
storm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..net.prefix import Prefix
from .router import CpuModel, Router, connect
from .scheduler import EventScheduler

__all__ = ["FlapStormScenario", "StormResult"]


@dataclass(slots=True)
class StormResult:
    """What a storm run produced."""

    session_drops: int = 0
    total_updates_sent: int = 0
    crashes: int = 0
    drop_times: List[float] = field(default_factory=list)


class FlapStormScenario:
    """A configurable flap-storm testbed (see module docstring).

    Parameters
    ----------
    engine:
        The scheduler to build on, either engine's.
    n_routers:
        Mesh size (full mesh, like exchange-point bilateral peering).
    prefixes_per_router:
        Each router originates this many /24s; the table everyone
        carries is ``n_routers * prefixes_per_router`` routes.
    cpu:
        The shared CPU cost model; slower CPUs storm sooner.
    keepalive_priority:
        The modern-router fix: "BGP traffic is given a higher priority
        and Keep-Alive messages persist even under heavy instability."
        When True keepalives bypass the CPU queue.
    hold_time:
        Session hold time; shorter means less tolerance for delay.
    """

    __slots__ = ("engine", "routers")

    def __init__(
        self,
        engine: EventScheduler,
        n_routers: int = 6,
        prefixes_per_router: int = 60,
        cpu: Optional[CpuModel] = None,
        keepalive_priority: bool = False,
        hold_time: float = 30.0,
        mrai_interval: float = 5.0,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        cpu = cpu or CpuModel(per_update=0.02, per_sent_update=0.01)
        self.routers: List[Router] = []
        base = 10 * (1 << 24)
        for i in range(n_routers):
            router = Router(
                self.engine,
                asn=100 + i,
                router_id=(192 << 24) + i + 1,
                cpu=cpu,
                hold_time=hold_time,
                mrai_interval=mrai_interval,
                mrai_jitter=0.25,
                keepalive_priority=keepalive_priority,
                rng=random.Random(seed + i),
            )
            self.routers.append(router)
        # Originations: distinct /24s per router.
        prefix_index = 0
        for router in self.routers:
            for _ in range(prefixes_per_router):
                router.originate(Prefix(base + prefix_index * 256, 24))
                prefix_index += 1
        # Full mesh.
        for i, a in enumerate(self.routers):
            for b in self.routers[i + 1:]:
                connect(a, b)

    # -- running ------------------------------------------------------------

    def settle(self, duration: float = 120.0) -> None:
        """Let sessions establish and tables converge."""
        self.engine.run_until(self.engine.now + duration)

    def inject_burst(
        self,
        victim_index: int = 0,
        flaps: int = 200,
        over_seconds: float = 10.0,
    ) -> None:
        """Flap the victim's originated prefixes rapidly."""
        victim = self.routers[victim_index]
        prefixes = victim.originated
        for i in range(flaps):
            at = self.engine.now + (i / flaps) * over_seconds
            prefix = prefixes[i % len(prefixes)]
            self.engine.schedule_at(
                at, victim.flap_origin, prefix, 0.5
            )

    def storm(
        self,
        flaps: int = 200,
        over_seconds: float = 10.0,
        observe_for: float = 300.0,
    ) -> StormResult:
        """Settle, inject, observe; returns cascade metrics."""
        self.settle()
        drops_before = self._total_drops()
        self.inject_burst(flaps=flaps, over_seconds=over_seconds)
        self.engine.run_until(self.engine.now + observe_for)
        result = StormResult()
        result.session_drops = self._total_drops() - drops_before
        result.total_updates_sent = sum(
            r.updates_sent for r in self.routers
        )
        result.crashes = sum(r.crash_count for r in self.routers)
        for router in self.routers:
            for session in router.sessions.values():
                result.drop_times.extend(
                    t.time
                    for t in session.fsm.history
                    if t.before.name == "ESTABLISHED"
                    and t.after.name != "ESTABLISHED"
                )
        result.drop_times.sort()
        return result

    def _total_drops(self) -> int:
        return sum(
            session.fsm.drop_count
            for router in self.routers
            for session in router.sessions.values()
        )
