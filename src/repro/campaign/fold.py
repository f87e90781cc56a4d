"""Streaming shard aggregation: fold day chunks, never whole shards.

:class:`ShardAccumulator` classifies each day's batch, absorbs it into
the mergeable aggregates and drops it, so a worker holds at most one
day of records (usually a read-only memmap of its spill chunk) however
long the horizon.

A day is grouped **once**.  :meth:`ShardAccumulator.fold_day` owns the
grouping: it takes :func:`~repro.core.columns.route_groups` of the
batch — the classifier's stable packed-``uint64`` sort by ``(peer_id,
prefix)`` — hands it to ``classify`` and keeps it.  On a batch in time
order, where every group has one peer ASN and no two groups share a
(prefix, ASN), those groups *are* the day's (prefix, peer ASN) pairs
and each is already in time order, so everything per pair — the dense
peer index, the packed pair key (``net << 8 | plen`` in the high 40
bits, a dense per-shard peer-ASN index in the low 24), the registry
slot — is computed over the groups (hundreds), and the rows see three
gathers and two ``np.repeat``.  A batch that fails a check (rows out of
time order, a peer id under two ASNs, two sessions of one ASN
announcing one prefix) is grouped a second time, by
:func:`~repro.core.columns.group_order` on ``(prefix, ASN, time)``,
and goes through the same per-group code to the same aggregates.  What
outlives a day is arrays, not per-pair Python objects: a sorted
pair-key registry holding, per pair, its row count and one last-event
time per histogram (NaN = none yet), merged with the day's groups by
``np.searchsorted``.

The fold is *bit-identical* to the whole-shard computation, by
construction rather than by luck:

- classification: :class:`~repro.core.columns.ColumnClassifier`
  carries per-route state across batches, proven equivalent to
  one-batch classification in ``tests/test_columns.py``;
- binned series: bin indices are computed against the *shard* start
  with the same float expression ``floor((t - start) / width)`` the
  whole-shard path used, accumulated into one dense window;
- inter-arrival histograms: a row subset of the grouped day is still
  grouped, so TOTAL and each category take the pair-by-pair,
  time-ordered masked diff
  :func:`~repro.analysis.interarrival.interarrival_times` takes; the
  gap straddling a day boundary is the pair's first event today minus
  its registered last one, so the merged gap multiset is the
  whole-shard one (days are time-disjoint and arrive in order —
  :meth:`ShardAccumulator.fold_day` rejects anything else);
- per-peer tallies are one ``np.bincount`` over ``asn_index * 16 +
  code``, per-prefix counts sum registry runs of equal prefix bits,
  pairs-per-day is the day's number of key groups: key-union integer
  sums, associative as the cross-shard merge is.

``tests/test_campaign.py`` asserts the equivalence digest-for-digest
against a whole-batch reference.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis.interarrival import FIGURE8_BINS, histogram_counts
from ..analysis.timeseries import BinnedSeries
from ..collector.store import SECONDS_PER_DAY
from ..core.columns import (
    ColumnClassifier,
    RecordColumns,
    first_of_run,
    group_order,
    prefix_key,
    route_groups,
)
from ..core.instability import CategoryCounts, peer_table, peer_tallies
from ..core.taxonomy import FINE_GRAINED_CATEGORIES
from ..net.prefix import Prefix
from .config import CampaignConfig, ShardSpec
from .results import TOTAL, PartialResult

__all__ = ["ShardAccumulator"]

#: Low bits of a pair key, holding the dense peer-ASN index (so at most
#: 2**24 peer ASNs per shard); the 40 prefix bits sit above them, which
#: makes one prefix's pairs adjacent in key order.
_ASN_BITS = 24


class ShardAccumulator:
    """Folds one shard's day batches into a :class:`PartialResult`.

    Feed the spec's days in order through :meth:`fold_day`, then take
    :meth:`result`.  State is O(active routes), independent of the
    day count — the whole point of the out-of-core tier.
    """

    __slots__ = (
        "config", "spec", "records", "_last_day",
        "_classifier", "_counts", "_bin_counts", "_hists",
        "_asns", "_peer_counts",
        "_pair_keys", "_pair_rows", "_pair_last", "_pairs_per_day",
    )

    def __init__(self, config: CampaignConfig, spec: ShardSpec) -> None:
        self.config = config
        self.spec = spec
        self.records = 0
        self._last_day = spec.day_lo - 1
        self._classifier = ColumnClassifier()
        self._counts = CategoryCounts()
        n_bins = len(spec.days) * config.bins_per_day
        self._bin_counts = np.zeros(n_bins, dtype=np.int64)
        #: Figure 8 histograms: row 0 is TOTAL, then one row per
        #: fine-grained category.
        rows = 1 + len(FINE_GRAINED_CATEGORIES)
        self._hists = np.zeros((rows, len(FIGURE8_BINS)), dtype=np.int64)
        #: Peer ASNs in first-seen order: a peer's position is its
        #: dense index for the shard's life, so registered pair keys
        #: stay valid when a later day brings a new peer.
        self._asns = np.empty(0, dtype=np.uint32)
        self._peer_counts = np.zeros((0, 16), dtype=np.int64)
        #: The pair registry: sorted keys and, per pair, its row count
        #: and its last event time in each histogram (NaN = none yet).
        self._pair_keys = np.empty(0, dtype=np.uint64)
        self._pair_rows = np.empty(0, dtype=np.int64)
        self._pair_last = np.empty((rows, 0), dtype=float)
        self._pairs_per_day: Dict[int, int] = {}

    def fold_day(self, day: int, columns: RecordColumns) -> None:
        """Classify and absorb one day's batch.  A shard's days fold
        once each, in increasing order, and hold only their own day's
        times: the classifier and gap carries are sequential, and a
        gap taken against a later event would be negative."""
        if not self._last_day < day < self.spec.day_hi:
            raise ValueError(
                f"day {day} not in ({self._last_day}, {self.spec.day_hi}): "
                "a shard's days fold once each, in increasing order"
            )
        data = columns.data
        times = data["time"]
        if len(data) and not (
            day * SECONDS_PER_DAY <= times.min()
            and times.max() < (day + 1) * SECONDS_PER_DAY
        ):
            raise ValueError(f"day {day} batch holds times outside the day")
        self._last_day = day
        if len(data) == 0:
            return
        self.records += len(data)
        # The bins go first, while the batch is all the day holds.  They,
        # the order check and the gather read the time field in place: a
        # contiguous copy would be one more f8 column at the day's peak.
        self._fold_bins(times)
        times, slots, codes = self._group_day(day, columns)
        self._fold_interarrival(0, times, slots)
        for row, category in enumerate(FINE_GRAINED_CATEGORIES, start=1):
            rows = np.flatnonzero(codes == category.value)
            self._fold_interarrival(row, times[rows], slots[rows])

    def _fold_bins(self, times: np.ndarray) -> None:
        # The exact whole-shard expression — indices relative to the
        # SHARD start, not the day start, so float rounding at bin
        # edges cannot diverge from the reference computation.
        start = self.spec.day_lo * SECONDS_PER_DAY
        # The same expression evaluated in place.  A checked day's times
        # sit at or after the shard start, so no index is negative; one
        # past the window (a float rounding up at its end) is cut off.
        bins = times - start
        bins /= self.config.bin_width
        np.floor(bins, out=bins)
        indices = bins.astype(np.intp)
        del bins
        n_bins = len(self._bin_counts)
        self._bin_counts += np.bincount(indices, minlength=n_bins)[:n_bins]

    def _peer_index(self, asns: np.ndarray) -> np.ndarray:
        """Dense index of each of ``asns`` (one per group), registering
        ASNs not seen before."""
        day_asns, inverse = np.unique(asns, return_inverse=True)
        fresh = np.setdiff1d(day_asns, self._asns, assume_unique=True)
        if fresh.size:
            self._asns = np.concatenate((self._asns, fresh))
            self._peer_counts = np.pad(  # zero rows for the new peers
                self._peer_counts, ((0, len(fresh)), (0, 0))
            )
        sorter = np.argsort(self._asns)
        index = sorter[np.searchsorted(self._asns, day_asns, sorter=sorter)]
        return index[inverse]

    def _rank_pairs(
        self, data: np.ndarray, first: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per group (``first`` holds one row of each): its dense peer
        index and its registry slot, the fresh pairs inserted — or
        ``None``, no pair registered, when two groups are one pair."""
        head = data[first]
        peer = self._peer_index(head["peer_asn"])
        key = prefix_key(head["net"], head["plen"])
        key <<= np.uint64(_ASN_BITS)
        key |= peer.view(np.uint64)
        rank = np.argsort(key)
        ranked = key[rank]
        if not first_of_run(ranked).all():
            return None
        slots = np.empty(len(rank), dtype=np.int32)
        slots[rank] = self._pair_slots(ranked)
        return peer, slots

    def _group_day(
        self, day: int, columns: RecordColumns
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Classifies the day, counts it into the category, per-peer
        and pair tallies and returns ``(time, registry slot, code)`` per
        row, pair by pair and each pair in time order.

        The classifier's ``(peer_id, prefix)`` groups are the day's
        pairs as they stand when the batch is in time order (the stable
        sort kept it inside each group), a group holds one peer ASN,
        and no two groups share a (prefix, ASN); everything per pair is
        then computed over the groups, not the rows.  A batch that
        fails a check — rows out of time order, a peer id announcing
        under two ASNs, two sessions of one ASN on one prefix — is
        grouped again by ``(prefix, ASN, time)`` and folds to the same
        aggregates.  The grouping and the batch-order labels live only
        here, each dropped after its last reader, so none of them is
        still held when the gap passes allocate."""
        data = columns.data
        time = data["time"]
        groups = route_groups(data)
        codes, policy = self._classifier.classify(columns, groups)
        self._counts += CategoryCounts.from_codes(codes, policy)
        order, starts = groups[:2]
        del groups
        pairs = None
        if (time[1:] >= time[:-1]).all():
            changes = first_of_run(np.take(data["peer_asn"], order))
            changes[starts] = False
            if not changes.any():  # the ASN changes only between groups
                pairs = self._rank_pairs(data, order[starts])
        if pairs is None:
            order, new_pair = group_order(
                (prefix_key(data["net"], data["plen"]), data["peer_asn"]),
                time,
            )
            starts = np.flatnonzero(new_pair)
            pairs = self._rank_pairs(data, order[starts])
        peer, slots = pairs
        sizes = np.diff(np.append(starts, len(order)))
        self._pair_rows[slots] += sizes
        self._pairs_per_day[day] = len(starts)
        codes = np.take(codes, order)
        policy = np.take(policy, order)
        self._peer_counts += peer_tallies(
            peer, len(self._asns), codes, policy, sizes
        )
        del policy
        # Indexing, not np.take: take copies a strided field whole first.
        time = time[order]
        del order
        return time, np.repeat(slots, sizes), codes

    def _pair_slots(self, keys: np.ndarray) -> np.ndarray:
        """Registry positions of ``keys`` (sorted, distinct), inserting
        the ones not registered yet."""
        at = np.searchsorted(self._pair_keys, keys)
        fresh = np.ones(len(keys), dtype=bool)
        inside = at < len(self._pair_keys)
        fresh[inside] = self._pair_keys[at[inside]] != keys[inside]
        if fresh.any():
            where = at[fresh]
            self._pair_keys = np.insert(self._pair_keys, where, keys[fresh])
            self._pair_rows = np.insert(self._pair_rows, where, 0)
            self._pair_last = np.insert(
                self._pair_last, where, np.nan, axis=1
            )
            # Every fresh key before this one shifted it right by one.
            at += np.cumsum(fresh) - fresh
        return at

    def _fold_interarrival(
        self, row: int, times: np.ndarray, slots: np.ndarray
    ) -> None:
        """Inter-arrival gaps of rows already in ``(pair, time)`` order
        into histogram ``row``: the masked diff within the day, plus
        each pair's first event against its registered last one."""
        if times.size == 0:
            return
        first = first_of_run(slots)
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(slots)) - 1
        pairs = slots[starts]
        last = self._pair_last[row]
        carried = times[starts] - last[pairs]  # NaN: no earlier event
        last[pairs] = times[ends]
        # A gap across two pairs is marked NaN, which no bin holds.
        gaps = np.diff(times)
        gaps[first[1:]] = np.nan
        self._hists[row] += histogram_counts(gaps) + histogram_counts(carried)

    def result(self) -> PartialResult:
        """The shard's aggregates; call once, after the last day."""
        offset = int(
            self.spec.day_lo * SECONDS_PER_DAY // self.config.bin_width
        )
        # An all-empty shard reproduces the whole-batch form exactly:
        # BinnedSeries.from_records yields a zero-length window when no
        # records exist, a full [day_lo, day_hi) window otherwise.
        counts = self._bin_counts if self.records else self._bin_counts[:0]
        bins = BinnedSeries(offset, counts, self.config.bin_width)
        names = (TOTAL,) + tuple(c.name for c in FINE_GRAINED_CATEGORIES)
        # Prefix bits lead the key, so a prefix's pairs are one run.
        prefixes = self._pair_keys >> np.uint64(_ASN_BITS)
        runs = np.flatnonzero(first_of_run(prefixes))
        by_prefix = {
            Prefix(prefix >> 8, prefix & 0xFF): count
            for prefix, count in zip(
                prefixes[runs].tolist(),
                np.add.reduceat(self._pair_rows, runs).tolist(),
            )
        }
        return PartialResult(
            records=self.records,
            counts=self._counts,
            bins=bins,
            interarrival=dict(zip(names, self._hists)),
            by_peer=peer_table(self._asns, self._peer_counts),
            by_prefix=by_prefix,
            pairs_per_day=self._pairs_per_day,
            by_exchange={self.spec.exchange: self._counts},
        )
