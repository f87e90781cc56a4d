"""Forwarding-plane traffic: instability's effect on packet loss.

Section 3's mechanism: route-caching routers forward on a fast path as
long as the interface card's cache holds the destination; "under
sustained levels of routing instability, the cache undergoes frequent
updates and the probability of a packet encountering a cache miss
increases.  A large number of cache misses results in increased load
on the CPU, increased switching latency and the 'dropping', or loss of
packets."

:class:`ForwardingWorkload` sends a Poisson packet stream through a
router toward a destination set and accounts for exactly that chain:

- cache hit → fast-path delivery;
- cache miss → slow-path RIB lookup, charged to the router CPU; if the
  CPU backlog exceeds ``drop_backlog`` the packet is dropped (input
  queue overflow);
- no route → loss (the destination is currently withdrawn).

The cache-architecture ablation compares a cache-based router against
a "new generation" full-table router (no cache ⇒ every lookup is a
RIB lookup at line rate, no churn-induced misses) under identical
instability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from ..net.prefix import Prefix
from .engine import Engine
from .router import Router

__all__ = ["TrafficStats", "ForwardingWorkload"]


@dataclass(slots=True)
class TrafficStats:
    """Outcome counters for a forwarding workload."""

    sent: int = 0
    delivered_fast: int = 0     #: cache hit
    delivered_slow: int = 0     #: cache miss, CPU had headroom
    dropped_no_route: int = 0   #: destination withdrawn
    dropped_overload: int = 0   #: CPU backlog exceeded the drop limit

    @property
    def loss_rate(self) -> float:
        return (
            (self.dropped_no_route + self.dropped_overload) / self.sent
            if self.sent
            else 0.0
        )


class ForwardingWorkload:
    """A Poisson packet stream through one router (see module doc)."""

    __slots__ = (
        "engine",
        "router",
        "destinations",
        "rate",
        "slow_path_cost",
        "drop_backlog",
        "rng",
        "stats",
        "_running",
    )

    def __init__(
        self,
        engine: Engine,
        router: Router,
        destinations: Sequence[Prefix],
        rate: float = 100.0,
        slow_path_cost: float = 0.0005,
        drop_backlog: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not destinations:
            raise ValueError("need at least one destination")
        self.engine = engine
        self.router = router
        self.destinations = list(destinations)
        self.rate = rate
        self.slow_path_cost = slow_path_cost
        self.drop_backlog = drop_backlog
        self.rng = rng or random.Random(0)
        self.stats = TrafficStats()
        self._running = False

    def start(self) -> None:
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        self.engine.schedule(
            self.rng.expovariate(self.rate), self._packet
        )

    def _packet(self) -> None:
        if not self._running:
            return
        self._schedule_next()
        if self.router.crashed:
            self.stats.sent += 1
            self.stats.dropped_overload += 1
            return
        self.stats.sent += 1
        destination = self.rng.choice(self.destinations)
        cache = self.router.cache
        if cache is not None and destination in cache.entries:
            cache.hits += 1
            self.stats.delivered_fast += 1
            return
        # Slow path: the lookup competes with update processing for
        # the CPU.  A saturated CPU means the input queue overflows.
        if (
            self.router.cpu is not None
            and self.router.cpu_backlog > self.drop_backlog
        ):
            if cache is not None:
                cache.misses += 1
            self.stats.dropped_overload += 1
            return
        best = self.router.loc_rib.best(destination)
        if cache is not None:
            cache.misses += 1
        if best is None:
            self.stats.dropped_no_route += 1
            return
        if cache is not None:
            if len(cache.entries) >= cache.capacity:
                # FIFO eviction: drop the oldest entry.
                cache.entries.pop(next(iter(cache.entries)))
            cache.entries[destination] = best.attributes.next_hop
        if self.router.cpu is not None:
            # Charge the slow-path lookup to the shared CPU.
            self.router._cpu_submit(self.slow_path_cost, lambda: None)
        self.stats.delivered_slow += 1
