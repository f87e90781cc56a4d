"""Router-free helpers of the simulated scenarios: per-entity RNG
derivation and domain-state digests.

These read a router's or a partition's state but never build one, so
this module imports no router, link or BGP session machinery.  The
scenario registry (:mod:`repro.sim.scenarios`) imports it at start-up
without loading what only the heavier scenario families run; the
partition (:mod:`repro.sim.partition`), adversary
(:mod:`repro.sim.adversary`) and parallel driver
(:mod:`repro.sim.parallel`) modules import from it too.

Digests cover domain state only — RIBs, route-server logs, update
counters — never engine internals, so a single-engine run and a
partitioned run of the same config agree bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Dict

from ..bgp.attributes import attribute_tuple
from ..core.routestate import route_state_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .partition import ExchangePartition
    from .router import Router

__all__ = [
    "combined_digest",
    "partition_digest",
    "rib_state_digest",
]


def _derive(seed: int, salt: int, index: int) -> random.Random:
    """A deterministic per-entity RNG, independent of build order."""
    return random.Random(seed * 2_654_435_761 + salt * 97_003 + index)


def rib_state_digest(router: Router) -> str:
    """:func:`route_state_digest` of one router's Adj-RIB-In."""
    adj_in = router.loc_rib.adj_in
    return route_state_digest(
        ((peer, prefix.network, prefix.length), True, True,
         attribute_tuple(attrs))
        for peer in adj_in.peers()
        for prefix, attrs in adj_in.routes_from(peer).items()
    )


def partition_digest(partition: ExchangePartition) -> str:
    """Domain-state digest of one exchange: per-router counters + RIB
    digests (ascending provider order), the route server's log and
    counters.  Engine internals (clocks, event counts) are excluded so
    single-engine and partitioned runs of the same config compare
    equal."""
    hasher = hashlib.sha256()
    for provider in sorted(partition.routers):
        router = partition.routers[provider]
        hasher.update(
            repr(
                (
                    provider,
                    router.updates_sent,
                    router.updates_received,
                    router.crash_count,
                    rib_state_digest(router),
                )
            ).encode()
        )
    server = partition.exchange.route_server
    hasher.update(
        repr(
            (
                server.updates_received,
                server.updates_sent,
                len(partition.sink.records),
            )
        ).encode()
    )
    for record in partition.sink.records:
        hasher.update(repr(record).encode())
    return hasher.hexdigest()


def combined_digest(digests: Dict[int, str]) -> str:
    """One run digest over per-exchange digests in exchange order —
    the common coin of the single-engine oracle
    (:func:`repro.sim.scenarios.run_exchange_day`) and the parallel
    driver (:attr:`repro.sim.parallel.ParallelResult.digest`)."""
    parts = tuple((index, digests[index]) for index in sorted(digests))
    return hashlib.sha256(repr(parts).encode()).hexdigest()
