"""Streaming shard aggregation: fold day chunks, never whole shards.

The original runner materialized a shard's full day range as one
:class:`~repro.core.columns.RecordColumns` batch and ran every
aggregate over it — O(shard length) memory, which is exactly what a
270-day horizon cannot afford.  :class:`ShardAccumulator` replaces
that with a fold: each day's batch is classified and absorbed into
the mergeable aggregates, then dropped, so a worker holds at most one
day of records (usually a read-only memmap of its spill chunk).

The fold is *bit-identical* to the whole-shard computation, by
construction rather than by luck:

- classification: :class:`~repro.core.columns.ColumnClassifier`
  carries per-route state across batches, proven equivalent to
  one-batch classification in ``tests/test_columns.py``;
- binned series: bin indices are computed against the *shard* start
  with the same float expression ``floor((t - start) / width)`` the
  whole-shard path used, accumulated into one dense window — same
  floats, same bins;
- inter-arrival histograms: within-day gaps come from the same
  lexsort-and-diff; the gap that straddles a day boundary is
  recovered from a per-pair last-event carry, so the merged gap
  multiset equals the whole-shard one (days are time-disjoint);
- everything else (category tallies, per-peer/per-prefix tables,
  pairs-per-day) is a key-union integer sum, associative by the same
  argument the cross-shard merge rests on.

``tests/test_campaign.py`` asserts the equivalence digest-for-digest
against a whole-batch reference.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..analysis.interarrival import FIGURE8_BINS, histogram_counts
from ..analysis.timeseries import BinnedSeries
from ..collector.store import SECONDS_PER_DAY
from ..core.columns import ColumnClassifier, RecordColumns
from ..core.instability import (
    CategoryCounts,
    counts_by_peer_columns,
    counts_by_prefix_columns,
)
from ..core.taxonomy import FINE_GRAINED_CATEGORIES
from .config import CampaignConfig, ShardSpec
from .results import (
    TOTAL,
    PartialResult,
    _merge_count_tables,
    _merge_int_tables,
)

__all__ = ["ShardAccumulator", "pairs_per_day"]

#: Per-pair key for the inter-arrival carry: (peer ASN, net, plen).
PairKey = Tuple[int, int, int]


def pairs_per_day(columns: RecordColumns) -> Dict[int, int]:
    """Distinct Prefix+AS pairs per day (the Figure 9 'affected
    routes' numerator, computed shard-locally — days never span
    shards).

    Keys are packed into scalar integers and deduplicated with a
    lexsort + adjacent-diff scan instead of ``np.unique`` over a
    structured array: structured dtypes fall back to generic
    compare-based sorting, which dominated shard wall-clock on the
    bench day.  Prefix net/plen fit one uint64 exactly (32 + 8 bits);
    day and ASN stay separate sort keys so no width assumption is
    needed for them.
    """
    n = len(columns)
    if n == 0:
        return {}
    day = (columns.time // SECONDS_PER_DAY).astype(np.int64)
    asn = columns.peer_asn
    prefix = (columns.net.astype(np.uint64) << np.uint64(8)) | columns.plen
    order = np.lexsort((prefix, asn, day))
    day_s = day[order]
    asn_s = asn[order]
    prefix_s = prefix[order]
    new_pair = np.empty(n, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (
        (day_s[1:] != day_s[:-1])
        | (asn_s[1:] != asn_s[:-1])
        | (prefix_s[1:] != prefix_s[:-1])
    )
    days, counts = np.unique(day_s[new_pair], return_counts=True)
    return {
        int(d): int(count)
        for d, count in zip(days.tolist(), counts.tolist())
    }


class ShardAccumulator:
    """Folds one shard's day batches into a :class:`PartialResult`.

    Feed the spec's days in order through :meth:`fold_day`, then take
    :meth:`result`.  State is O(active routes), independent of the
    day count — the whole point of the out-of-core tier.
    """

    __slots__ = (
        "config",
        "spec",
        "records",
        "_classifier",
        "_counts",
        "_bin_counts",
        "_names",
        "_hists",
        "_last_event",
        "_by_peer",
        "_by_prefix",
        "_pairs_per_day",
    )

    def __init__(self, config: CampaignConfig, spec: ShardSpec) -> None:
        self.config = config
        self.spec = spec
        self.records = 0
        self._classifier = ColumnClassifier()
        self._counts = CategoryCounts()
        self._bin_counts = np.zeros(
            (spec.day_hi - spec.day_lo) * config.bins_per_day,
            dtype=np.int64,
        )
        self._names = (TOTAL,) + tuple(
            c.name for c in FINE_GRAINED_CATEGORIES
        )
        self._hists = {
            name: np.zeros(len(FIGURE8_BINS), dtype=np.int64)
            for name in self._names
        }
        self._last_event: Dict[str, Dict[PairKey, float]] = {
            name: {} for name in self._names
        }
        self._by_peer: Dict[int, CategoryCounts] = {}
        self._by_prefix: Dict = {}
        self._pairs_per_day: Dict[int, int] = {}

    def fold_day(self, day: int, columns: RecordColumns) -> None:
        """Classify and absorb one day's batch (must arrive in day
        order — the classifier and gap carries are sequential)."""
        if not self.spec.day_lo <= day < self.spec.day_hi:
            raise ValueError(
                f"day {day} outside shard range "
                f"[{self.spec.day_lo}, {self.spec.day_hi})"
            )
        codes, policy = self._classifier.classify(columns)
        self.records += len(columns)
        self._counts = self._counts + CategoryCounts.from_codes(
            codes, policy
        )
        self._fold_bins(columns)
        self._fold_gaps(TOTAL, columns.data)
        for category in FINE_GRAINED_CATEGORIES:
            self._fold_gaps(
                category.name, columns.data[codes == category.value]
            )
        self._by_peer = _merge_count_tables(
            self._by_peer, counts_by_peer_columns(columns, codes, policy)
        )
        self._by_prefix = _merge_int_tables(
            self._by_prefix, counts_by_prefix_columns(columns)
        )
        self._pairs_per_day = _merge_int_tables(
            self._pairs_per_day, pairs_per_day(columns)
        )

    def _fold_bins(self, columns: RecordColumns) -> None:
        # The exact whole-shard expression — indices relative to the
        # SHARD start, not the day start, so float rounding at bin
        # edges cannot diverge from the reference computation.
        times = columns.data["time"]
        if times.size == 0:
            return
        start = self.spec.day_lo * SECONDS_PER_DAY
        indices = np.floor(
            (times - start) / self.config.bin_width
        ).astype(int)
        valid = (indices >= 0) & (indices < len(self._bin_counts))
        self._bin_counts += np.bincount(
            indices[valid], minlength=len(self._bin_counts)
        )

    def _fold_gaps(self, name: str, data: np.ndarray) -> None:
        """Inter-arrival gaps of ``data`` folded into histogram
        ``name``: within-batch gaps by lexsort+diff (identical to
        :func:`~repro.analysis.interarrival.interarrival_columns`),
        plus each pair's boundary gap against the carried last event
        time from earlier days."""
        n = len(data)
        if n == 0:
            return
        last = self._last_event[name]
        order = np.lexsort(
            (data["time"], data["plen"], data["net"], data["peer_asn"])
        )
        s = data[order]
        asn, net, plen, t = s["peer_asn"], s["net"], s["plen"], s["time"]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        if n > 1:
            same = (
                (asn[1:] == asn[:-1])
                & (net[1:] == net[:-1])
                & (plen[1:] == plen[:-1])
            )
            new_group[1:] = ~same
            gaps = np.diff(t)[same]
            if gaps.size:
                self._hists[name] += histogram_counts(gaps)
        starts = np.flatnonzero(new_group)
        ends = np.append(starts[1:], n) - 1
        carry = []
        for a, nt, pl, first, final in zip(
            asn[starts].tolist(),
            net[starts].tolist(),
            plen[starts].tolist(),
            t[starts].tolist(),
            t[ends].tolist(),
        ):
            key = (a, nt, pl)
            previous = last.get(key)
            if previous is not None:
                carry.append(first - previous)
            last[key] = final
        if carry:
            self._hists[name] += histogram_counts(
                np.asarray(carry, dtype=float)
            )

    def result(self) -> PartialResult:
        """The shard's aggregates; call once, after the last day."""
        offset = int(
            self.spec.day_lo * SECONDS_PER_DAY // self.config.bin_width
        )
        # An all-empty shard reproduces the whole-batch form exactly:
        # BinnedSeries.from_records yields a zero-length window when no
        # records exist, a full [day_lo, day_hi) window otherwise.
        counts = (
            self._bin_counts
            if self.records
            else np.zeros(0, dtype=np.int64)
        )
        bins = BinnedSeries(offset, counts, self.config.bin_width)
        return PartialResult(
            records=self.records,
            counts=self._counts,
            bins=bins,
            interarrival=dict(self._hists),
            by_peer=self._by_peer,
            by_prefix=self._by_prefix,
            pairs_per_day=self._pairs_per_day,
            by_exchange={self.spec.exchange: self._counts},
        )
