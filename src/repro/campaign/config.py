"""The unified campaign configuration.

:class:`CampaignConfig` is the single way to parameterize a
multi-day run: how many days, which seed, how large a peer
population, how many shards, where output goes, and which exchange
points are instrumented.  Everything downstream — the sharded runner,
the CLI, the examples, the benchmark harness — derives its inputs
from one of these, so two runs with equal configs are guaranteed to
describe the same workload.

A config deterministically expands into a **shard plan**
(:meth:`CampaignConfig.shard_plan`): one :class:`ShardSpec` per
(exchange, contiguous day range).  A shard is a pure function of
``(config, spec)`` — each shard synthesizes its own generator and
classifier from the spec's seeds — so the plan can be executed by any
number of worker processes, in any order, and the merged result is
bit-identical to a single-process run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..collector.store import SECONDS_PER_DAY
from ..core.taxonomy import UpdateCategory
from ..topology.exchange import exchange_by_name

__all__ = ["CampaignConfig", "ShardSpec", "canonical_json", "sha256_text"]

#: Seed stride between exchanges: each exchange's generator seed is
#: ``seed + exchange_index * EXCHANGE_SEED_STRIDE``, so the first
#: (default) exchange reproduces a plain ``TraceGenerator(seed=seed)``
#: stream exactly.
EXCHANGE_SEED_STRIDE = 10_007


def canonical_json(payload) -> str:
    """The one serialized form used for digests and fingerprints."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ShardSpec:
    """One unit of campaign work: a contiguous day range at one
    exchange, with the seeds that make it self-contained."""

    index: int
    exchange: str
    day_lo: int  # inclusive
    day_hi: int  # exclusive
    population_seed: int
    generator_seed: int

    @property
    def days(self) -> range:
        return range(self.day_lo, self.day_hi)

    @property
    def name(self) -> str:
        return f"shard-{self.index:04d}"

    def to_payload(self) -> dict:
        return {
            "index": self.index,
            "exchange": self.exchange,
            "days": [self.day_lo, self.day_hi],
            "population_seed": self.population_seed,
            "generator_seed": self.generator_seed,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ShardSpec":
        return cls(
            index=int(payload["index"]),
            exchange=payload["exchange"],
            day_lo=int(payload["days"][0]),
            day_hi=int(payload["days"][1]),
            population_seed=int(payload["population_seed"]),
            generator_seed=int(payload["generator_seed"]),
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a campaign run.  See module docstring.

    ``shards`` counts day-range chunks per exchange; the total number
    of shard tasks is ``shards * len(exchanges)``.  ``categories``
    optionally restricts generation to a subset of taxonomy category
    names (e.g. the fine-grained set — no WWDup flood); ``None`` means
    all planned categories, and an empty selection is rejected (a
    campaign of nothing is a mistake, not a request).  ``out`` is the
    output/manifest directory; ``None`` runs fully in memory (no
    archives, no resume).
    """

    days: int = 14
    seed: int = 11
    n_peers: int = 30
    total_prefixes: int = 4000
    shards: int = 4
    out: Optional[str] = None
    exchanges: Tuple[str, ...] = ("Mae-East",)
    pair_fraction: float = 1.0
    categories: Optional[Tuple[str, ...]] = None
    bin_width: float = 600.0

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if not (1 <= self.shards <= self.days):
            raise ValueError(
                f"shards must be in [1, days]; got {self.shards} "
                f"for {self.days} days"
            )
        if not (0.0 < self.pair_fraction <= 1.0):
            raise ValueError("pair_fraction must be in (0, 1]")
        if self.bin_width <= 0 or SECONDS_PER_DAY % self.bin_width:
            raise ValueError(
                "bin_width must positively divide a day "
                f"({SECONDS_PER_DAY}s); got {self.bin_width}"
            )
        if not self.exchanges:
            raise ValueError("at least one exchange is required")
        object.__setattr__(self, "exchanges", tuple(self.exchanges))
        for name in self.exchanges:
            exchange_by_name(name)  # raises KeyError for unknown names
        if self.out is not None:
            object.__setattr__(self, "out", str(self.out))
        if self.categories is not None:
            names = tuple(str(c).upper() for c in self.categories)
            if not names:
                raise ValueError(
                    "categories must name at least one category "
                    "(None selects all of them)"
                )
            for name in names:
                UpdateCategory[name]  # raises KeyError for unknown names
            object.__setattr__(self, "categories", names)

    # -- derived workload shape ---------------------------------------------

    @property
    def bins_per_day(self) -> int:
        return int(SECONDS_PER_DAY // self.bin_width)

    @property
    def total_bins(self) -> int:
        return self.days * self.bins_per_day

    def category_set(self) -> Optional[Tuple[UpdateCategory, ...]]:
        """The configured categories as enum members (None = all)."""
        if self.categories is None:
            return None
        return tuple(UpdateCategory[name] for name in self.categories)

    def population(self):
        """The (shared) peer population this config describes."""
        from ..workloads.generator import PeerPopulation

        return PeerPopulation.synthesize(
            n_peers=self.n_peers,
            total_prefixes=self.total_prefixes,
            seed=self.seed,
        )

    # -- shard planning -----------------------------------------------------

    def day_ranges(self) -> List[Tuple[int, int]]:
        """``shards`` contiguous, near-equal ``[lo, hi)`` day chunks."""
        base, extra = divmod(self.days, self.shards)
        ranges: List[Tuple[int, int]] = []
        lo = 0
        for i in range(self.shards):
            hi = lo + base + (1 if i < extra else 0)
            ranges.append((lo, hi))
            lo = hi
        return ranges

    def shard_plan(self) -> List[ShardSpec]:
        """The full task list, exchange-major, indexed contiguously."""
        plan: List[ShardSpec] = []
        for ex_index, exchange in enumerate(self.exchanges):
            generator_seed = self.seed + ex_index * EXCHANGE_SEED_STRIDE
            for lo, hi in self.day_ranges():
                plan.append(
                    ShardSpec(
                        index=len(plan),
                        exchange=exchange,
                        day_lo=lo,
                        day_hi=hi,
                        population_seed=self.seed,
                        generator_seed=generator_seed,
                    )
                )
        return plan

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "days": self.days,
            "seed": self.seed,
            "n_peers": self.n_peers,
            "total_prefixes": self.total_prefixes,
            "shards": self.shards,
            "exchanges": list(self.exchanges),
            "pair_fraction": self.pair_fraction,
            "categories": (
                None if self.categories is None else list(self.categories)
            ),
            "bin_width": self.bin_width,
        }

    @classmethod
    def from_payload(cls, payload: dict, out: Optional[str] = None) -> "CampaignConfig":
        return cls(
            days=int(payload["days"]),
            seed=int(payload["seed"]),
            n_peers=int(payload["n_peers"]),
            total_prefixes=int(payload["total_prefixes"]),
            shards=int(payload["shards"]),
            out=out,
            exchanges=tuple(payload["exchanges"]),
            pair_fraction=float(payload["pair_fraction"]),
            categories=(
                None
                if payload["categories"] is None
                else tuple(payload["categories"])
            ),
            bin_width=float(payload["bin_width"]),
        )

    def fingerprint(self) -> str:
        """Digest identifying the *workload* (``out`` excluded, so a
        moved output directory still resumes)."""
        return sha256_text(canonical_json(self.to_payload()))
