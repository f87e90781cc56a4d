"""Mergeable campaign results.

A campaign shard produces a :class:`PartialResult` — every aggregate
the paper's headline analyses need, in a form that merges with ``+``:

- taxonomy tallies (:class:`~repro.core.instability.CategoryCounts`),
- the binned update time series
  (:class:`~repro.analysis.timeseries.BinnedSeries`),
- per-peer and per-prefix count tables (key-union, value-sum),
- raw inter-arrival histograms (integer bin-count arrays),
- distinct active Prefix+AS pairs per day,
- per-exchange taxonomy tallies.

Every component's merge is associative and commutative over integers
with an explicit identity (:meth:`PartialResult.empty`), so the order
in which shards complete — and the tree shape in which partials are
folded — never changes the merged campaign result.  The runner still
folds in shard-index order for good measure; the associativity is
proven by test (``tests/test_campaign.py``).

Partials serialize to a canonical JSON payload
(:meth:`PartialResult.to_payload`) used three ways: shipping results
from worker processes to the parent, persisting completed shards for
``--resume``, and digesting outputs for the shard manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..analysis.interarrival import (
    FIGURE8_BINS,
    proportions_from_counts,
    timer_bin_mass,
)
from ..analysis.timeseries import BinnedSeries
from ..core.instability import CategoryCounts
from ..net.prefix import Prefix
from .config import CampaignConfig, canonical_json, sha256_text

__all__ = [
    "COMMUTATIVE_MERGES",
    "PartialResult",
    "CampaignResult",
]

#: Key for the all-categories inter-arrival histogram.
TOTAL = "TOTAL"


def _merge_count_tables(
    a: Dict[int, CategoryCounts], b: Dict[int, CategoryCounts]
) -> Dict[int, CategoryCounts]:
    out = dict(a)
    for key, counts in b.items():
        existing = out.get(key)
        out[key] = counts if existing is None else existing + counts
    return out


def _merge_int_tables(a: Dict, b: Dict) -> Dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return out


def _merge_histograms(
    a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    out = dict(a)
    for key, counts in b.items():
        existing = out.get(key)
        out[key] = counts.copy() if existing is None else existing + counts
    return out


@dataclass
class PartialResult:
    """One shard's aggregates (or any merge of several shards')."""

    records: int = 0
    counts: CategoryCounts = field(default_factory=CategoryCounts)
    bins: BinnedSeries = field(default_factory=BinnedSeries.empty)
    #: Inter-arrival histogram counts per category name plus ``TOTAL``.
    interarrival: Dict[str, np.ndarray] = field(default_factory=dict)
    by_peer: Dict[int, CategoryCounts] = field(default_factory=dict)
    by_prefix: Dict[Prefix, int] = field(default_factory=dict)
    pairs_per_day: Dict[int, int] = field(default_factory=dict)
    by_exchange: Dict[str, CategoryCounts] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "PartialResult":
        """The merge identity."""
        return cls()

    def __add__(self, other: object) -> "PartialResult":
        if isinstance(other, int) and other == 0:  # sum() start value
            return self
        if not isinstance(other, PartialResult):
            return NotImplemented
        return PartialResult(
            records=self.records + other.records,
            counts=self.counts + other.counts,
            bins=self.bins + other.bins,
            interarrival=_merge_histograms(
                self.interarrival, other.interarrival
            ),
            by_peer=_merge_count_tables(self.by_peer, other.by_peer),
            by_prefix=_merge_int_tables(self.by_prefix, other.by_prefix),
            pairs_per_day=_merge_int_tables(
                self.pairs_per_day, other.pairs_per_day
            ),
            by_exchange=_merge_count_tables(
                self.by_exchange, other.by_exchange
            ),
        )

    __radd__ = __add__

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        """Canonical plain-data form (sorted keys, no zero entries)."""
        return {
            "records": self.records,
            "counts": self.counts.nonzero_dict(),
            "policy_changes": self.counts.policy_changes,
            "bins": self.bins.to_payload(),
            "interarrival": {
                name: counts.tolist()
                for name, counts in sorted(self.interarrival.items())
                if counts.any()
            },
            "by_peer": {
                str(asn): {
                    "counts": counts.nonzero_dict(),
                    "policy_changes": counts.policy_changes,
                }
                for asn, counts in sorted(self.by_peer.items())
            },
            "by_prefix": {
                # A Prefix sorts as its (network, length) tuple.
                str(prefix): count
                for prefix, count in sorted(self.by_prefix.items())
            },
            "pairs_per_day": {
                str(day): count
                for day, count in sorted(self.pairs_per_day.items())
            },
            "by_exchange": {
                name: {
                    "counts": counts.nonzero_dict(),
                    "policy_changes": counts.policy_changes,
                }
                for name, counts in sorted(self.by_exchange.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PartialResult":
        def counts_of(entry: dict) -> CategoryCounts:
            return CategoryCounts.from_dict(
                entry["counts"], int(entry.get("policy_changes", 0))
            )

        return cls(
            records=int(payload["records"]),
            counts=CategoryCounts.from_dict(
                payload["counts"], int(payload["policy_changes"])
            ),
            bins=BinnedSeries.from_payload(payload["bins"]),
            interarrival={
                name: np.asarray(counts, dtype=np.int64)
                for name, counts in payload["interarrival"].items()
            },
            by_peer={
                int(asn): counts_of(entry)
                for asn, entry in payload["by_peer"].items()
            },
            by_prefix={
                Prefix.parse(text): int(count)
                for text, count in payload["by_prefix"].items()
            },
            pairs_per_day={
                int(day): int(count)
                for day, count in payload["pairs_per_day"].items()
            },
            by_exchange={
                name: counts_of(entry)
                for name, entry in payload["by_exchange"].items()
            },
        )

    def digest(self) -> str:
        return sha256_text(canonical_json(self.to_payload()))

    # -- analysis conveniences ---------------------------------------------

    def interarrival_proportions(self, name: str = TOTAL) -> List[float]:
        counts = self.interarrival.get(name)
        if counts is None:
            counts = np.zeros(len(FIGURE8_BINS), dtype=np.int64)
        return proportions_from_counts(counts)

    @property
    def timer_mass(self) -> float:
        """Combined 30s+1m inter-arrival mass (paper: ~half)."""
        return timer_bin_mass(self.interarrival_proportions())


#: Every ``+``-mergeable result type in the campaign pipeline.  A class
#: listed here asserts: ``__add__`` is associative and commutative over
#: its contents, with an explicit identity.  ``repro.lint`` (MRG001)
#: requires every ``__add__``-defining class in this module to appear
#: here and to merge all of its dataclass fields; the campaign property
#: tests exercise merge-order independence over these types.
COMMUTATIVE_MERGES = (
    CategoryCounts,
    BinnedSeries,
    PartialResult,
)


@dataclass
class CampaignResult:
    """The merged outcome of a campaign run."""

    config: CampaignConfig
    partial: PartialResult
    shard_count: int
    shards_run: int
    shards_loaded: int

    @property
    def complete(self) -> bool:
        return self.shards_run + self.shards_loaded == self.shard_count

    # Delegates the analyses read most.
    @property
    def records(self) -> int:
        return self.partial.records

    @property
    def counts(self) -> CategoryCounts:
        return self.partial.counts

    @property
    def timer_mass(self) -> float:
        return self.partial.timer_mass

    def bin_counts(self) -> np.ndarray:
        """The full campaign time series, dense from bin 0."""
        return self.partial.bins.dense(self.config.total_bins)

    def daily_totals(self) -> np.ndarray:
        return self.bin_counts().reshape(
            self.config.days, self.config.bins_per_day
        ).sum(axis=1)

    def affected_fractions(self) -> np.ndarray:
        """Per-day share of Prefix+AS pairs with >= 1 event (days with
        no events are skipped, like the paper's gap days)."""
        total_pairs = self.config.population().total_pairs
        per_day = np.zeros(self.config.days, dtype=np.int64)
        for day, count in self.partial.pairs_per_day.items():
            if 0 <= day < self.config.days:
                per_day[day] = count
        active = per_day[per_day > 0]
        return active / float(total_pairs * len(self.config.exchanges))
