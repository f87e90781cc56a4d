"""Multi-exchange instrumentation: the cross-exchange consistency claim.

The paper instruments five exchange points but presents Mae-East,
asserting "these results are representative of other exchange points,
including PacBell and Sprint.  The BGP information exported from
autonomous systems at private exchange points should mirror the data
at public exchanges" (§5).  That is a checkable claim: the *same
provider behaviour* (customer flaps, stateless implementations,
misconfigurations) is visible wherever the provider peers.

:class:`MultiExchangeScenario` builds it mechanistically: each
national backbone operates one border router *per exchange*, all
originating the same customer space and all fed by one shared
customer-fault process (a customer circuit is attached to the
backbone, not to an exchange — when it flaps, every border router
withdraws it).  Each exchange has its own logging route server, so the
per-exchange logs can be classified independently and compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..collector.record import MemoryLog
from ..core.columns import RecordColumns, classify_columns
from ..core.instability import CategoryCounts
from ..net.prefix import Prefix
from ..sim.engine import Engine
from ..sim.router import Router
from ..sim.routeserver import ExchangePoint

__all__ = ["BackboneProvider", "MultiExchangeScenario"]


@dataclass
class BackboneProvider:
    """One national backbone present at several exchanges."""

    asn: int
    stateless: bool = False
    flap_rate: float = 0.0           #: customer flaps per second
    routers: Dict[str, Router] = field(default_factory=dict)
    prefixes: List[Prefix] = field(default_factory=list)

    def flap(self, engine: Engine, prefix: Prefix, down_for: float) -> None:
        """One customer flap, visible at every exchange at once: every
        border router withdraws and re-announces the prefix."""
        for router in self.routers.values():
            router.flap_origin(prefix, down_for=down_for)


class MultiExchangeScenario:
    """Providers spanning multiple instrumented exchanges.

    Parameters
    ----------
    exchange_names:
        Which of the five measured exchanges to build (default: three).
    n_providers, prefixes_per_provider:
        The provider population; providers alternate stateless/stateful
        and get heterogeneous flap rates.
    """

    def __init__(
        self,
        exchange_names: Sequence[str] = ("Mae-East", "AADS", "PacBell"),
        n_providers: int = 6,
        prefixes_per_provider: int = 20,
        mrai_interval: float = 15.0,
        seed: int = 0,
    ) -> None:
        self.engine = Engine()
        self.rng = random.Random(seed)
        self.sinks: Dict[str, MemoryLog] = {}
        self.exchanges: Dict[str, ExchangePoint] = {}
        for name in exchange_names:
            sink = MemoryLog()
            self.sinks[name] = sink
            self.exchanges[name] = ExchangePoint(
                self.engine, name=name, sink=sink, full_mesh=True,
                server_asn=64900 + len(self.exchanges),
            )
        self.providers: List[BackboneProvider] = []
        base = 40 << 24
        prefix_index = 0
        router_id = 1
        for i in range(n_providers):
            provider = BackboneProvider(
                asn=100 + i,
                stateless=(i % 2 == 0),
                flap_rate=1.0 / self.rng.uniform(120.0, 900.0),
            )
            for _ in range(prefixes_per_provider):
                provider.prefixes.append(
                    Prefix(base + prefix_index * 256, 24)
                )
                prefix_index += 1
            # Providers do not all peer everywhere: each attends the
            # first exchange (Mae-East hosts essentially everyone) and
            # a random subset of the rest, so the per-exchange views
            # genuinely differ.
            attending = [exchange_names[0]] + [
                name
                for name in exchange_names[1:]
                if self.rng.random() < 0.8
            ]
            for name in attending:
                router = Router(
                    self.engine,
                    asn=provider.asn,
                    router_id=(172 << 24) + router_id,
                    stateless_bgp=provider.stateless,
                    mrai_interval=mrai_interval,
                    mrai_jitter=0.25,
                    rng=random.Random(seed * 31 + router_id),
                    name=f"AS{provider.asn}@{name}",
                )
                router_id += 1
                for prefix in provider.prefixes:
                    router.originate(prefix)
                self.exchanges[name].attach_provider(router)
                provider.routers[name] = router
            self.providers.append(provider)

    # -- running -----------------------------------------------------------

    def settle(self, duration: float = 200.0) -> None:
        self.engine.run_until(self.engine.now + duration)
        for sink in self.sinks.values():
            sink.clear()

    def run_with_faults(self, duration: float) -> None:
        """Drive shared customer-fault processes for ``duration``."""
        end = self.engine.now + duration
        for provider in self.providers:
            t = self.engine.now
            while True:
                t += self.rng.expovariate(provider.flap_rate)
                if t >= end:
                    break
                prefix = self.rng.choice(provider.prefixes)
                down = self.rng.uniform(
                    1.5 * 15.0, 4.0 * 15.0
                )  # outlast the MRAI
                self.engine.schedule_at(
                    t, provider.flap, self.engine, prefix, down
                )
        self.engine.run_until(end)

    # -- measurement ---------------------------------------------------------

    def classify_exchange(self, name: str) -> CategoryCounts:
        """The taxonomy breakdown of one exchange's log."""
        columns = RecordColumns.from_records(
            self.sinks[name].sorted_by_time()
        )
        return CategoryCounts.from_codes(*classify_columns(columns))

    def category_profiles(self) -> Dict[str, Dict[str, float]]:
        """Per-exchange normalized category shares (for similarity)."""
        profiles: Dict[str, Dict[str, float]] = {}
        for name in self.exchanges:
            counts = self.classify_exchange(name)
            total = max(1, counts.total)
            profiles[name] = {
                category: value / total
                for category, value in counts.as_dict().items()
            }
        return profiles

    @staticmethod
    def profile_similarity(
        a: Dict[str, float], b: Dict[str, float]
    ) -> float:
        """Cosine similarity between two category-share profiles."""
        import math

        keys = set(a) | set(b)
        dot = sum(a.get(k, 0.0) * b.get(k, 0.0) for k in keys)
        norm_a = math.sqrt(sum(v * v for v in a.values()))
        norm_b = math.sqrt(sum(v * v for v in b.values()))
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)

    def min_pairwise_similarity(self) -> float:
        """The weakest cross-exchange agreement — the §5 claim holds
        when this stays high."""
        profiles = list(self.category_profiles().values())
        worst = 1.0
        for i, a in enumerate(profiles):
            for b in profiles[i + 1:]:
                worst = min(worst, self.profile_similarity(a, b))
        return worst
