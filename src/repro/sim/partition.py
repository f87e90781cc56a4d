"""Partitionable multi-exchange day: one closed world per exchange.

The paper's instability pathologies are multi-exchange phenomena: a
provider's customer circuit flaps at its *home* exchange, and the
withdrawal/re-announcement churn reaches the provider's border routers
at every other exchange it attends only after the backbone propagation
+ batching delay.  That delay is the physical *lookahead* the parallel
driver (:mod:`repro.sim.parallel`) exploits: no exchange can influence
another sooner than the minimum inter-exchange latency, so each
partition may safely run that far ahead of the rest.

This module builds the scenario so that every partition is
*self-contained and deterministic in isolation*:

- All randomness is derived per entity (per provider, per router) from
  ``(seed, salt, index)`` — never from one shared stream — so
  partition ``p`` constructs bit-identically whether it is built alone
  in a worker process or alongside the other partitions on a single
  engine.
- Exogenous customer flaps are pre-derived per provider and scheduled
  on the *home* partition only.  The full flap timetable of a
  partition is therefore known at build time, which gives the parallel
  driver an exact next-send lower bound (conservative simulation with
  lookahead jumps between sparse flaps, not fixed-width windows).
- Cross-exchange effects travel through a :class:`CrossChannel`:
  inline (``schedule_at`` on the shared engine — the single-engine
  oracle mode) or collected into an outbox of :class:`CrossMessage`
  for the parallel driver to route and inject deterministically.

Digests (:func:`repro.sim.digests.partition_digest`) cover domain
state only — RIBs, route-server logs, update counters — never engine
internals, so a single-engine run and a partitioned run of the same
config must agree bit-for-bit (property-tested in
``tests/test_engine_equivalence.py``).  They and the per-entity RNG
derivation live in the router-free :mod:`repro.sim.digests`, which
the scenario registry imports without loading this module.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..collector.record import MemoryLog
from ..net.prefix import Prefix
from ..topology.exchange import EXCHANGE_POINTS
from .adversary import AdversaryConfig, install_adversary
from .digests import _derive
from .router import Router
from .routeserver import ExchangePoint

__all__ = [
    "CrossMessage",
    "ExchangeDayConfig",
    "ExchangePartition",
    "InlineChannel",
    "OutboxChannel",
    "min_lookahead",
    "pair_latency",
]

#: Prefix space for provider customer routes (disjoint from the other
#: scenarios' 10/8 and 20/8 blocks).
_PREFIX_BASE = 60 * (1 << 24)

#: RNG derivation salts (one stream per purpose per entity; composed
#: with a Knuth multiplicative constant so provider indices from
#: different salts never collide).
_SALT_ATTEND = 1
_SALT_FLAPS = 2
_SALT_ROUTER = 3

#: Inter-exchange latency floor, seconds.  Physically: backbone
#: propagation plus the provider's internal iBGP/MRAI batching before
#: the far router reacts — tens of seconds in the paper's era (its
#: MRAI default alone is 30 s).  This floor is the parallel driver's
#: minimum lookahead, so it is deliberately conservative-large.
_LATENCY_FLOOR = 15.0


def pair_latency(a: int, b: int) -> float:
    """Deterministic symmetric latency between exchanges ``a``/``b``.

    Values are spread over irregular non-grid offsets above the floor
    so cross-partition delivery instants never collide with the 30 s
    timer grids (keepalives, MRAI) inside a partition.
    """
    lo, hi = (a, b) if a <= b else (b, a)
    return _LATENCY_FLOOR + 0.731 * (((lo + 1) * (hi + 3)) % 11) + 0.013


def min_lookahead(exchanges: int) -> float:
    """The conservative lookahead bound: minimum pairwise latency."""
    return min(
        pair_latency(a, b)
        for a in range(exchanges)
        for b in range(a + 1, exchanges)
    )


@dataclass(frozen=True, slots=True)
class ExchangeDayConfig:
    """A 5-exchange, 90-provider simulated day (defaults), partition-
    safe by construction.  ``duration`` is the observed span after
    ``settle`` (sessions establishing, tables converging)."""

    exchanges: int = 5
    providers: int = 90
    prefixes_per_provider: int = 2
    settle: float = 120.0
    duration: float = 86_400.0
    seed: int = 7
    #: Probability a provider attends each non-home exchange.
    attend_probability: float = 0.35
    #: Per-provider Poisson customer-flap rate (per second).
    flap_rate: float = 1.0 / 600.0
    #: Mean customer outage (exponential), seconds.
    down_time: float = 45.0
    mrai_interval: float = 30.0
    hold_time: float = 90.0
    #: Bilateral provider mesh per exchange (O(N^2)); False keeps the
    #: O(N) route-server-only configuration of §3.
    full_mesh: bool = False
    #: Share of providers running stateless BGP (the paper's problem
    #: vendor), spread evenly over the provider indices.
    stateless_fraction: float = 0.0
    #: Optional seeded attacker (:class:`~repro.sim.adversary
    #: .AdversaryConfig`); its pulse timetable is a pure function of
    #: this config, installed per partition at build time.
    adversary: Optional[AdversaryConfig] = None

    @property
    def end_time(self) -> float:
        return self.settle + self.duration

    def attended(self, provider: int) -> Tuple[int, ...]:
        """Exchanges provider ``provider`` attends (home first by
        value order; derived identically in every partition)."""
        home = provider % self.exchanges
        rng = _derive(self.seed, _SALT_ATTEND, provider)
        extra = tuple(
            e
            for e in range(self.exchanges)
            if e != home and rng.random() < self.attend_probability
        )
        return tuple(sorted((home,) + extra))

    def stateless(self, provider: int) -> bool:
        """Whether provider ``provider`` runs stateless BGP: a pure
        function of the config (no draw), so exactly
        ``int(providers * stateless_fraction)`` providers are, the same
        ones in every partition."""
        f = self.stateless_fraction
        return int((provider + 1) * f) > int(provider * f)

    def provider_prefixes(self, provider: int) -> Tuple[Prefix, ...]:
        base = provider * self.prefixes_per_provider
        return tuple(
            Prefix(_PREFIX_BASE + (base + k) * 256, 24)
            for k in range(self.prefixes_per_provider)
        )

    def flap_schedule(
        self, provider: int
    ) -> List[Tuple[float, int, float]]:
        """The provider's full-day flap timetable:
        ``(time, prefix_index, down_for)`` tuples, strictly increasing
        times drawn from one per-provider stream."""
        rng = _derive(self.seed, _SALT_FLAPS, provider)
        out: List[Tuple[float, int, float]] = []
        t = self.settle
        end = self.end_time
        while True:
            t += rng.expovariate(self.flap_rate)
            if t >= end:
                return out
            k = rng.randrange(self.prefixes_per_provider)
            down = rng.expovariate(1.0 / self.down_time)
            out.append((t, k, down))


@dataclass(slots=True, frozen=True)
class CrossMessage:
    """One cross-exchange directive in flight (primitive fields only —
    cheap to pickle through the worker pipes).  Canonical injection
    order is ``(delivery_time, src_exchange, src_seq)``."""

    delivery_time: float
    dst_exchange: int
    provider: int
    prefix_index: int
    down_for: float
    src_exchange: int
    src_seq: int

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        return (self.delivery_time, self.src_exchange, self.src_seq)


class InlineChannel:
    """Single-engine mode: cross-exchange directives become ordinary
    engine events on the shared engine (the oracle the parallel driver
    is differentially tested against)."""

    __slots__ = ("engine", "partitions")

    def __init__(self, engine, partitions: List["ExchangePartition"]):
        self.engine = engine
        self.partitions = partitions

    def emit(
        self,
        src_exchange: int,
        dst_exchange: int,
        delivery_time: float,
        provider: int,
        prefix_index: int,
        down_for: float,
    ) -> None:
        self.engine.schedule_at(
            delivery_time,
            self.partitions[dst_exchange].apply_remote_flap,
            provider,
            prefix_index,
            down_for,
        )


class OutboxChannel:
    """Parallel mode: directives accumulate in an outbox the driver
    drains at window boundaries.  ``src_seq`` preserves emission order
    per source partition, making cross-partition injection order
    canonical."""

    __slots__ = ("outbox", "_seq")

    def __init__(self) -> None:
        self.outbox: List[CrossMessage] = []
        self._seq = 0

    def emit(
        self,
        src_exchange: int,
        dst_exchange: int,
        delivery_time: float,
        provider: int,
        prefix_index: int,
        down_for: float,
    ) -> None:
        self.outbox.append(
            CrossMessage(
                delivery_time=delivery_time,
                dst_exchange=dst_exchange,
                provider=provider,
                prefix_index=prefix_index,
                down_for=down_for,
                src_exchange=src_exchange,
                src_seq=self._seq,
            )
        )
        self._seq += 1

    def drain(self) -> List[CrossMessage]:
        out = self.outbox
        self.outbox = []
        return out


class ExchangePartition:
    """One exchange's closed world: the exchange fabric, the resident
    provider routers, and the exogenous flap processes of providers
    homed here."""

    __slots__ = (
        "config",
        "index",
        "engine",
        "channel",
        "sink",
        "exchange",
        "routers",
        "remote_targets",
        "flap_times",
    )

    def __init__(self, config: ExchangeDayConfig, index: int, engine) -> None:
        self.config = config
        self.index = index
        self.engine = engine
        self.channel = None
        self.sink = None
        self.exchange: Optional[ExchangePoint] = None
        #: provider index -> this provider's router *at this exchange*.
        self.routers: Dict[int, Router] = {}
        #: provider index -> non-home attended exchanges (home == here).
        self.remote_targets: Dict[int, Tuple[int, ...]] = {}
        #: Send instants of this partition (multi-attendance home
        #: providers' flap times, ascending): the driver's exact
        #: next-send lower bound.
        self.flap_times: List[float] = []

    def build(self, channel, sink=None) -> None:
        """Construct routers, sessions, originations, and the home
        flap timetable.  Identical insertions in identical order
        regardless of what else shares the engine."""
        config = self.config
        self.channel = channel
        self.sink = sink if sink is not None else MemoryLog()
        info = EXCHANGE_POINTS[self.index % len(EXCHANGE_POINTS)]
        self.exchange = ExchangePoint(
            self.engine,
            name=f"{info.name}#{self.index}",
            sink=self.sink,
            server_asn=65_000 + self.index,
            full_mesh=config.full_mesh,
        )
        sends: List[float] = []
        for provider in range(config.providers):
            attended = config.attended(provider)
            if self.index not in attended:
                continue
            router = Router(
                self.engine,
                asn=1000 + provider,
                router_id=(172 << 24) + provider * 32 + self.index,
                hold_time=config.hold_time,
                mrai_interval=config.mrai_interval,
                mrai_jitter=0.25,
                stateless_bgp=config.stateless(provider),
                rng=_derive(
                    self.config.seed,
                    _SALT_ROUTER,
                    provider * 32 + self.index,
                ),
            )
            for prefix in config.provider_prefixes(provider):
                router.originate(prefix)
            self.exchange.attach_provider(router)
            self.routers[provider] = router
            home = provider % config.exchanges
            if home != self.index:
                continue
            remotes = tuple(e for e in attended if e != self.index)
            self.remote_targets[provider] = remotes
            for when, prefix_index, down_for in config.flap_schedule(
                provider
            ):
                self.engine.schedule_at(
                    when, self._home_flap, provider, prefix_index, down_for
                )
                if remotes:
                    sends.append(when)
        adversary = config.adversary
        if (
            adversary is not None
            and adversary.attacker in self.routers
        ):
            install_adversary(self, adversary)
        sends.sort()
        self.flap_times = sends

    # -- event callbacks ----------------------------------------------------

    def _home_flap(
        self, provider: int, prefix_index: int, down_for: float
    ) -> None:
        """A customer circuit flap at the provider's home exchange:
        flap locally, and direct the provider's other routers to follow
        after the inter-exchange latency."""
        prefix = self.config.provider_prefixes(provider)[prefix_index]
        self.routers[provider].flap_origin(prefix, down_for)
        remotes = self.remote_targets.get(provider)
        if not remotes:
            return
        now = self.engine.now
        for dst in remotes:
            self.channel.emit(
                self.index,
                dst,
                now + pair_latency(self.index, dst),
                provider,
                prefix_index,
                down_for,
            )

    def apply_remote_flap(
        self, provider: int, prefix_index: int, down_for: float
    ) -> None:
        """The delayed arrival of a home flap at this exchange."""
        prefix = self.config.provider_prefixes(provider)[prefix_index]
        self.routers[provider].flap_origin(prefix, down_for)

    # -- lookahead ----------------------------------------------------------

    def next_send_bound(self, after: float) -> float:
        """Earliest instant at which this partition could still emit a
        cross message strictly after ``after`` (exact: sends only
        happen at pre-derived home flap times)."""
        times = self.flap_times
        index = bisect_right(times, after)
        return times[index] if index < len(times) else float("inf")

