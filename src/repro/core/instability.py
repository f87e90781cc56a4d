"""Instability metrics over classified update batches.

Aggregations the paper's analyses and the benchmark harness share,
all over a :class:`~repro.core.columns.RecordColumns` batch and its
row-aligned category codes:

- :class:`CategoryCounts` — per-category tallies with the paper's
  instability / pathological / uncategorized roll-ups;
- :func:`counts_by_peer_columns`, :func:`counts_by_prefix_as_columns`,
  :func:`counts_by_prefix_columns` — the groupings behind Figures 6
  and 7;
- :func:`detect_incidents` — the paper's "pathological routing
  incident": a period where aggregate instability exceeds the normal
  level by an order of magnitude or more;
- :func:`persistence` — how long a route's information keeps
  fluctuating before stabilizing (the paper: "the persistence of most
  pathological BGP behaviors is under five minutes").
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..collector.record import PrefixAs
from ..net.prefix import Prefix
from .taxonomy import (
    INSTABILITY_CATEGORIES,
    PATHOLOGICAL_CATEGORIES,
    UpdateCategory,
)

__all__ = [
    "CategoryCounts",
    "counts_by_peer_columns",
    "counts_by_prefix_as_columns",
    "counts_by_prefix_columns",
    "detect_incidents",
    "persistence",
    "Incident",
]


@dataclass(slots=True)
class CategoryCounts:
    """Tallies of classified updates, per category."""

    counts: Counter = field(default_factory=Counter)
    policy_changes: int = 0

    @classmethod
    def from_codes(
        cls,
        codes: "np.ndarray",
        policy: Optional["np.ndarray"] = None,
    ) -> "CategoryCounts":
        """Tallies from a columnar classification (category-code and
        policy arrays, as produced by
        :func:`~repro.core.columns.classify_columns`)."""
        result = cls()
        totals = np.bincount(
            np.asarray(codes), minlength=len(UpdateCategory) + 1
        )
        for category in UpdateCategory:
            count = int(totals[category.value])
            if count:
                result.counts[category] = count
        if policy is not None:
            result.policy_changes = int(np.count_nonzero(policy))
        return result

    def __getitem__(self, category: UpdateCategory) -> int:
        return self.counts.get(category, 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def instability(self) -> int:
        """AADiff + WADiff + WADup (the paper's instability measure)."""
        return sum(
            self.counts.get(c, 0) for c in INSTABILITY_CATEGORIES
        )

    @property
    def pathological(self) -> int:
        """AADup + WWDup."""
        return sum(
            self.counts.get(c, 0) for c in PATHOLOGICAL_CATEGORIES
        )

    @property
    def uncategorized(self) -> int:
        return (
            self.counts.get(UpdateCategory.NEW_ANNOUNCE, 0)
            + self.counts.get(UpdateCategory.PLAIN_WITHDRAW, 0)
        )

    @property
    def pathological_fraction(self) -> float:
        """Share of all updates that are pathological (paper: ~99% once
        WWDup storms are included)."""
        return self.pathological / self.total if self.total else 0.0

    def merged(self, other: "CategoryCounts") -> "CategoryCounts":
        """A new tally combining both (associative; the empty
        :class:`CategoryCounts` is the identity) — the campaign
        layer's shard-merge operation, also spelled ``+``."""
        result = CategoryCounts()
        result.counts = self.counts + other.counts
        result.policy_changes = self.policy_changes + other.policy_changes
        return result

    def __add__(self, other: object) -> "CategoryCounts":
        if isinstance(other, int) and other == 0:  # sum() start value
            return self
        if not isinstance(other, CategoryCounts):
            return NotImplemented
        return self.merged(other)

    __radd__ = __add__

    def as_dict(self) -> Dict[str, int]:
        """Plain dict keyed by category name (for reports/JSON)."""
        return {cat.name: self.counts.get(cat, 0) for cat in UpdateCategory}

    def nonzero_dict(self) -> Dict[str, int]:
        """Like :meth:`as_dict` but only categories that occurred —
        the canonical serialized form (zero entries would make equal
        tallies serialize differently)."""
        return {
            cat.name: self.counts[cat]
            for cat in UpdateCategory
            if self.counts.get(cat, 0)
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, int], policy_changes: int = 0
    ) -> "CategoryCounts":
        """Rebuild a tally from :meth:`as_dict`/:meth:`nonzero_dict`
        output (zero entries are dropped, so the round trip is
        canonical)."""
        result = cls(policy_changes=policy_changes)
        for name, value in payload.items():
            if value:
                result.counts[UpdateCategory[name]] = value
        return result


def counts_by_peer_columns(
    columns,
    codes: "np.ndarray",
    policy: Optional["np.ndarray"] = None,
) -> Dict[int, "CategoryCounts"]:
    """Per-peer-AS category counts (Figure 6's per-peer points) from
    a classified :class:`~repro.core.columns.RecordColumns` batch, via
    one ``np.unique`` over (peer ASN, code) keys."""
    codes = np.asarray(codes)
    key = columns.peer_asn.astype(np.uint64) * 16 + codes
    unique, totals = np.unique(key, return_counts=True)
    result: Dict[int, CategoryCounts] = {}
    for combined, count in zip(unique.tolist(), totals.tolist()):
        asn, code = divmod(combined, 16)
        counts = result.get(asn)
        if counts is None:
            counts = result[asn] = CategoryCounts()
        counts.counts[UpdateCategory(code)] = count
    if policy is not None:
        asns, flips = np.unique(
            columns.peer_asn[np.asarray(policy)], return_counts=True
        )
        for asn, count in zip(asns.tolist(), flips.tolist()):
            if asn in result:
                result[asn].policy_changes = count
    return result


def _pair_group_counts(columns, codes, category, keys):
    """Group rows of ``columns`` by the given key columns (optionally
    restricted to one category); returns ``(sorted_rows, group_starts,
    group_counts)``."""
    data = columns.data
    if category is not None:
        data = data[np.asarray(codes) == category.value]
    if len(data) == 0:
        empty = np.empty(0, dtype=np.int64)
        return data, empty, empty
    order = np.lexsort(tuple(data[k] for k in reversed(keys)))
    s = data[order]
    n = len(s)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    changed = np.zeros(n - 1, dtype=bool)
    for k in keys:
        changed |= s[k][1:] != s[k][:-1]
    new_group[1:] = changed
    starts = np.flatnonzero(new_group)
    counts = np.diff(np.append(starts, n))
    return s, starts, counts


def counts_by_prefix_as_columns(
    columns,
    codes: Optional["np.ndarray"] = None,
    category: Optional[UpdateCategory] = None,
) -> Dict[PrefixAs, int]:
    """Events per Prefix+AS pair, optionally restricted to one
    category (Figure 7's histogram input), from a
    :class:`~repro.core.columns.RecordColumns` batch."""
    s, starts, counts = _pair_group_counts(
        columns, codes, category, ("peer_asn", "net", "plen")
    )
    result: Dict[PrefixAs, int] = {}
    nets = s["net"][starts].tolist()
    plens = s["plen"][starts].tolist()
    asns = s["peer_asn"][starts].tolist()
    for net, plen, asn, count in zip(nets, plens, asns, counts.tolist()):
        result[(Prefix(net, plen), asn)] = count
    return result


def counts_by_prefix_columns(
    columns,
    codes: Optional["np.ndarray"] = None,
    category: Optional[UpdateCategory] = None,
) -> Dict[Prefix, int]:
    """Events per bare prefix (AS dimension collapsed).

    The paper: "An investigation of instability aggregated on prefix
    alone generated results similar to those shown in this section and
    have been omitted" — this is that aggregation, so the claim can be
    verified rather than taken on faith.
    """
    s, starts, counts = _pair_group_counts(
        columns, codes, category, ("net", "plen")
    )
    result: Dict[Prefix, int] = {}
    nets = s["net"][starts].tolist()
    plens = s["plen"][starts].tolist()
    for net, plen, count in zip(nets, plens, counts.tolist()):
        result[Prefix(net, plen)] = count
    return result


@dataclass(frozen=True, slots=True)
class Incident:
    """A pathological routing incident: a bin whose update level
    exceeds the baseline by ``magnitude`` orders of magnitude."""

    start: float
    end: float
    updates: int
    baseline: float
    magnitude: float


def detect_incidents(
    bin_counts: Sequence[int],
    bin_width: float,
    threshold_orders: float = 1.0,
) -> List[Incident]:
    """Find pathological routing incidents in binned update counts.

    The paper defines an incident as "a time when the aggregate level
    of routing instability seen at an exchange point exceeds the normal
    level of instability by one or more orders of magnitude."  The
    *normal level* here is the median of the non-zero bins; a bin
    qualifies when ``count >= baseline * 10**threshold_orders``.
    Adjacent qualifying bins merge into one incident.
    """
    nonzero = sorted(c for c in bin_counts if c > 0)
    if not nonzero:
        return []
    baseline = float(nonzero[len(nonzero) // 2])
    cutoff = baseline * (10.0 ** threshold_orders)
    incidents: List[Incident] = []
    run_start: Optional[int] = None
    run_total = 0
    for index, count in enumerate(bin_counts):
        if count >= cutoff:
            if run_start is None:
                run_start = index
                run_total = 0
            run_total += count
        elif run_start is not None:
            incidents.append(
                _make_incident(run_start, index, run_total, baseline, bin_width)
            )
            run_start = None
    if run_start is not None:
        incidents.append(
            _make_incident(
                run_start, len(bin_counts), run_total, baseline, bin_width
            )
        )
    return incidents


def _make_incident(
    start_bin: int, end_bin: int, total: int, baseline: float, width: float
) -> Incident:
    peak_ratio = total / max(baseline * (end_bin - start_bin), 1e-12)
    return Incident(
        start=start_bin * width,
        end=end_bin * width,
        updates=total,
        baseline=baseline,
        magnitude=math.log10(max(peak_ratio, 1e-12)),
    )


def persistence(
    columns,
    quiet_gap: float = 300.0,
) -> Dict[PrefixAs, List[float]]:
    """Fluctuation-episode durations per Prefix+AS pair.

    Consecutive events for a pair belong to one episode while their
    spacing stays under ``quiet_gap`` (default five minutes — the
    paper's observed upper bound on pathological persistence); the
    episode's persistence is last-event time minus first-event time.
    Single-event episodes have persistence 0.  One lexsort over
    (Prefix+AS, time) puts each pair's events in time order; an
    episode starts wherever the pair changes or the gap exceeds
    ``quiet_gap``.
    """
    data = columns.data
    n = len(data)
    if n == 0:
        return {}
    order = np.lexsort(
        (data["time"], data["plen"], data["net"], data["peer_asn"])
    )
    s = data[order]
    time = s["time"]
    new_episode = np.empty(n, dtype=bool)
    new_episode[0] = True
    new_episode[1:] = (
        (s["peer_asn"][1:] != s["peer_asn"][:-1])
        | (s["net"][1:] != s["net"][:-1])
        | (s["plen"][1:] != s["plen"][:-1])
        | (np.diff(time) > quiet_gap)
    )
    starts = np.flatnonzero(new_episode)
    ends = np.append(starts[1:], n) - 1
    episodes: Dict[PrefixAs, List[float]] = {}
    for net, plen, asn, duration in zip(
        s["net"][starts].tolist(),
        s["plen"][starts].tolist(),
        s["peer_asn"][starts].tolist(),
        (time[ends] - time[starts]).tolist(),
    ):
        episodes.setdefault((Prefix(net, plen), asn), []).append(duration)
    return episodes
