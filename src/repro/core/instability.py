"""Instability metrics over classified update batches.

Aggregations the paper's analyses and the benchmark harness share,
all over a :class:`~repro.core.columns.RecordColumns` batch and its
row-aligned category codes:

- :class:`CategoryCounts` — per-category tallies with the paper's
  instability / pathological roll-ups;
- :func:`counts_by_peer_columns`, :func:`counts_by_prefix_as_columns`,
  :func:`counts_by_prefix_columns` — the groupings behind Figures 6
  and 7;
- :func:`persistence` — how long a route's information keeps
  fluctuating before stabilizing (the paper: "the persistence of most
  pathological BGP behaviors is under five minutes").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..collector.record import PrefixAs
from ..net.prefix import Prefix
from .columns import group_order, prefix_key
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
    "peer_tallies",
    "peer_table",
    "persistence",
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
        totals = np.bincount(
            np.asarray(codes), minlength=len(UpdateCategory) + 1
        )
        return cls.from_totals(
            totals, 0 if policy is None else int(np.count_nonzero(policy))
        )

    @classmethod
    def from_totals(
        cls, totals: Sequence[int], policy_changes: int = 0
    ) -> "CategoryCounts":
        """Tallies from a count vector indexed by category code
        (``UpdateCategory.value``); zero entries are dropped."""
        result = cls(policy_changes=policy_changes)
        for category in UpdateCategory:
            count = int(totals[category.value])
            if count:
                result.counts[category] = count
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


def peer_tallies(
    peer: "np.ndarray",
    n_peers: int,
    codes: "np.ndarray",
    policy: Optional["np.ndarray"] = None,
) -> "np.ndarray":
    """``(n_peers, 16)`` tallies of classified rows whose peers are
    dense indices: ``[i, c]`` counts peer ``i``'s rows of category code
    ``c``, and column 0 — no category has code 0 — its policy
    fluctuations.  One ``np.bincount``, no sort; tallies add."""
    keys = peer * 16 + np.asarray(codes)
    if policy is not None:
        keys = np.concatenate((keys, peer[np.asarray(policy)] * 16))
    return np.bincount(keys, minlength=n_peers * 16).reshape(n_peers, 16)


def peer_table(asns, tallies) -> Dict[int, "CategoryCounts"]:
    """:func:`peer_tallies` rows as ``{peer ASN: CategoryCounts}``,
    ``asns[i]`` naming dense index ``i``."""
    return {
        asn: CategoryCounts.from_totals(row, int(row[0]))
        for asn, row in zip(asns.tolist(), tallies)
    }


def counts_by_peer_columns(
    columns,
    codes: "np.ndarray",
    policy: Optional["np.ndarray"] = None,
) -> Dict[int, "CategoryCounts"]:
    """Per-peer-AS category counts (Figure 6's per-peer points) from
    a classified :class:`~repro.core.columns.RecordColumns` batch."""
    asns, peer = np.unique(columns.peer_asn, return_inverse=True)
    return peer_table(asns, peer_tallies(peer, len(asns), codes, policy))


def _pair_group_counts(columns, codes, category, by_peer):
    """Group rows of ``columns`` per prefix — per (peer ASN, prefix)
    when ``by_peer`` — optionally restricted to one category; returns
    one representative row per group, in key order, and the group
    sizes."""
    data = columns.data
    if category is not None:
        data = data[np.asarray(codes) == category.value]
    prefix = prefix_key(data["net"], data["plen"])
    order, new_group = group_order(
        (data["peer_asn"], prefix) if by_peer else (prefix,)
    )
    starts = np.flatnonzero(new_group)
    return data[order[starts]], np.diff(np.append(starts, len(order)))


def counts_by_prefix_as_columns(
    columns,
    codes: Optional["np.ndarray"] = None,
    category: Optional[UpdateCategory] = None,
) -> Dict[PrefixAs, int]:
    """Events per Prefix+AS pair, optionally restricted to one
    category (Figure 7's histogram input), from a
    :class:`~repro.core.columns.RecordColumns` batch."""
    first, counts = _pair_group_counts(columns, codes, category, True)
    return {
        (Prefix(net, plen), asn): count
        for net, plen, asn, count in zip(
            first["net"].tolist(),
            first["plen"].tolist(),
            first["peer_asn"].tolist(),
            counts.tolist(),
        )
    }


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
    first, counts = _pair_group_counts(columns, codes, category, False)
    return {
        Prefix(net, plen): count
        for net, plen, count in zip(
            first["net"].tolist(), first["plen"].tolist(), counts.tolist()
        )
    }


def persistence(
    columns,
    quiet_gap: float = 300.0,
) -> Dict[PrefixAs, List[float]]:
    """Fluctuation-episode durations per Prefix+AS pair.

    Consecutive events for a pair belong to one episode while their
    spacing stays under ``quiet_gap`` (default five minutes — the
    paper's observed upper bound on pathological persistence); the
    episode's persistence is last-event time minus first-event time.
    Single-event episodes have persistence 0.  One
    :func:`~repro.core.columns.group_order` sort over (Prefix+AS,
    time) puts each pair's events in time order; an episode starts
    wherever the pair changes or the gap exceeds ``quiet_gap``.
    """
    data = columns.data
    n = len(data)
    if n == 0:
        return {}
    order, new_episode = group_order(
        (data["peer_asn"], prefix_key(data["net"], data["plen"])),
        data["time"],
    )
    time = np.take(data["time"], order)
    new_episode[1:] |= np.diff(time) > quiet_gap
    starts = np.flatnonzero(new_episode)
    ends = np.append(starts[1:], n) - 1
    rows = order[starts]
    episodes: Dict[PrefixAs, List[float]] = {}
    for net, plen, asn, duration in zip(
        data["net"][rows].tolist(),
        data["plen"][rows].tolist(),
        data["peer_asn"][rows].tolist(),
        (time[ends] - time[starts]).tolist(),
    ):
        episodes.setdefault((Prefix(net, plen), asn), []).append(duration)
    return episodes
