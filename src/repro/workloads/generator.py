"""The statistical long-horizon trace generator (Tier B).

A nine-month, 3–6-million-updates-per-day campaign is out of reach for
a pure-Python event simulation, so the long-horizon figures are driven
by this generator.  It produces the *same* record stream the route
servers log, from an explicit statistical model whose knobs are the
paper's published magnitudes (:mod:`repro.workloads.calibration`) and
whose per-update mechanisms mirror the Tier-A simulation:

1. **Planning** (:meth:`TraceGenerator.plan_day`): for each day, every
   taxonomy category gets a *participation set* — which Prefix+AS
   pairs are active and how many events each contributes.  Pair counts
   follow a geometric distribution (Figure 7's "80–100% of instability
   from pairs seen <50 times"), participation fractions are drawn from
   Figure 9's ranges, per-peer allocation is independent of table
   share (Figure 6's non-correlation), and rare dominator days inject
   an Aug-11-style handful of pairs with hundreds of events.

2. **Aggregation**: bin-level counts (the Figure 2/3/4/5 inputs) are
   computed directly from the plan by spreading each category's total
   across the day's 144 ten-minute bins proportionally to the diurnal
   intensity and incident multipliers.  No records are materialized.

3. **Materialization** (:meth:`TraceGenerator.day_columns`): when an
   analysis needs actual records (Figures 6, 7, 8; Table-1-style
   runs), active pairs are subsampled by ``pair_fraction`` — keeping
   each pair's episode structure intact, which preserves distribution
   shapes — and each pair's events become announce/withdraw record
   sequences whose in-episode spacing follows the 30/60-second timer
   mixture (Figure 8) and whose classifier labels match the planned
   category (the generator tracks the same per-route state the
   classifier does).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bgp.attributes import AsPath, PathAttributes
from ..collector.record import UpdateKind, UpdateRecord
from ..collector.store import SECONDS_PER_DAY
from ..core.columns import (
    NO_ATTR,
    RECORD_DTYPE,
    AttributeTable,
    RecordColumns,
)
from ..core.taxonomy import UpdateCategory
from ..net.prefix import Prefix
from .calibration import PAPER, PaperConstants
from .diurnal import DiurnalModel
from .incidents import BINS_PER_DAY, IncidentSchedule, default_campaign_schedule

__all__ = [
    "PeerInfo",
    "PeerPopulation",
    "GeneratorTargets",
    "DayPlan",
    "TraceGenerator",
    "campaign_generator",
]

Pair = Tuple[Prefix, int]  # (prefix, peer ASN)

#: The plannable categories (PLAIN_WITHDRAW/NEW_ANNOUNCE arise as
#: side-effects of WA* sequences and bootstraps).
PLANNED_CATEGORIES = (
    UpdateCategory.AADIFF,
    UpdateCategory.WADIFF,
    UpdateCategory.AADUP,
    UpdateCategory.WADUP,
    UpdateCategory.WWDUP,
)


@dataclass(slots=True)
class PeerInfo:
    """One exchange-point peer: a provider AS with a table share and
    the Prefix+AS pairs it is responsible for."""

    asn: int
    peer_id: int
    table_share: float
    prefixes: List[Prefix] = field(default_factory=list)


class PeerPopulation:
    """The synthetic Mae-East peer set.

    Table shares follow the paper's structure: "six to eight ISPs"
    dominate the routing tables (clusters visible in Figure 6a), with a
    long tail of small peers.  Prefix counts are proportional to share.
    """

    __slots__ = ("peers", "by_asn", "all_pairs")

    def __init__(self, peers: List[PeerInfo]) -> None:
        self.peers = peers
        self.by_asn: Dict[int, PeerInfo] = {p.asn: p for p in peers}
        self.all_pairs: List[Pair] = [
            (prefix, peer.asn) for peer in peers for prefix in peer.prefixes
        ]

    @classmethod
    def synthesize(
        cls,
        n_peers: int = 30,
        total_prefixes: int = PAPER.total_prefixes,
        n_dominant: int = 7,
        seed: int = 0,
    ) -> "PeerPopulation":
        """Generate a population with realistic share structure."""
        rng = random.Random(seed)
        # Dominant ISPs take ~75% of the table; Zipf tail for the rest.
        weights = [rng.uniform(0.7, 1.3) * 1.0 for _ in range(n_dominant)]
        tail = [
            rng.uniform(0.7, 1.3) / (2.0 + i)
            for i in range(n_peers - n_dominant)
        ]
        raw = weights + tail
        total_weight = sum(raw)
        shares = [w / total_weight for w in raw]
        peers: List[PeerInfo] = []
        base_network = 4 << 24
        next_index = 0
        for i, share in enumerate(shares):
            count = max(1, int(round(share * total_prefixes)))
            prefixes = [
                Prefix((base_network + (next_index + j) * 256) & 0xFFFFFF00, 24)
                for j in range(count)
            ]
            next_index += count
            peers.append(
                PeerInfo(
                    asn=200 + i,
                    peer_id=(192 << 24) + i + 1,
                    table_share=share,
                    prefixes=prefixes,
                )
            )
        return cls(peers)

    @property
    def total_pairs(self) -> int:
        return len(self.all_pairs)


@dataclass(slots=True)
class GeneratorTargets:
    """The statistical knobs, defaulted to the paper's findings."""

    #: Daily fraction of pairs with ≥1 event, per category
    #: (Figure 9's ranges; WWDup/AADup tuned so the *union* lands on
    #: the 35–100% / median-50% "any update" figure).
    participation: Dict[UpdateCategory, Tuple[float, float]] = field(
        default_factory=lambda: {
            UpdateCategory.WADIFF: (0.03, 0.10),
            UpdateCategory.AADIFF: (0.05, 0.20),
            UpdateCategory.WADUP: (0.04, 0.12),
            UpdateCategory.AADUP: (0.10, 0.35),
            UpdateCategory.WWDUP: (0.10, 0.55),
        }
    )
    #: Geometric mean of per-pair event counts, per category.  WWDup
    #: pairs flap in long bursts (ISP-I withdrew 2.4M for 14k prefixes).
    mean_events_per_pair: Dict[UpdateCategory, float] = field(
        default_factory=lambda: {
            UpdateCategory.WADIFF: 2.5,
            UpdateCategory.AADIFF: 3.5,
            UpdateCategory.WADUP: 4.0,
            UpdateCategory.AADUP: 5.0,
            # WWDup pairs flap in long bursts: ISP-I's 2.4M withdrawals
            # over 14,112 prefixes is ~176 per pair in one day.
            UpdateCategory.WWDUP: 220.0,
        }
    )
    #: Probability a day is a "dominator day" (Figure 7's Aug 11).
    dominator_day_probability: float = 0.05
    #: Dominator pairs and their per-pair event count range.
    dominator_pairs: int = 7
    dominator_events: Tuple[int, int] = (600, 660)
    #: The Figure 8 inter-arrival mixture: mass on the 30 s timer, the
    #: 60 s (CSU / double-interval) line, and a broad background.
    spacing_30s_mass: float = 0.45
    spacing_60s_mass: float = 0.20
    #: Cap on any single pair's events per day (ISP-I's worst prefixes
    #: saw thousands of withdrawals in a day).
    max_events_per_pair: int = 3000
    #: Per-(day, peer) activity spread: σ of the lognormal multiplier
    #: on each peer's share of the day's active pairs.  Makes a peer's
    #: update share vary independently of its table share — Figure 6's
    #: non-correlation.
    peer_activity_sigma: float = 1.5
    #: Heavy-pair injection for the duplicate categories: probability
    #: an active AADup/WADup pair flaps hundreds of times (Figure 7's
    #: "5% to 10% of their events come from Prefix+AS pairs that occur
    #: 200 times or more").
    heavy_pair_probability: float = 0.004
    heavy_pair_events: Tuple[int, int] = (200, 700)
    #: Fraction of AADup announcements that change a *non-forwarding*
    #: attribute (MED/community) — the paper's *policy fluctuation*:
    #: same (Prefix, NextHop, ASPATH) tuple, different policy load.
    policy_fluctuation_fraction: float = 0.25


@dataclass(slots=True)
class DayPlan:
    """Everything decided about one generated day, before any records.

    ``participation`` maps categories to (pair, count) allocations —
    UNscaled, i.e. at the full population size.  ``bin_weights`` are
    the relative event densities of the 144 ten-minute bins (incident
    multipliers folded in); ``lost_bins`` mark collection outages.
    """

    day: int
    participation: Dict[UpdateCategory, List[Tuple[Pair, int]]]
    bin_weights: List[float]
    lost_bins: Set[int]
    #: Lazy cache for :meth:`materialization_weights`.
    _cum: Optional[Tuple[List[float], float]] = field(
        default=None, repr=False, compare=False
    )

    def materialization_weights(self) -> Tuple[List[float], float]:
        """The cumulative materialization bin weights (lost bins
        zeroed) and their total.

        The running sums are built with the same left-to-right float
        additions :meth:`TraceGenerator._sample_bin`'s scan performed,
        so a ``bisect`` over them lands on the *identical* bin for any
        draw — the cache turns per-episode sampling from an O(bins)
        list rebuild into an O(log bins) lookup without moving a
        single RNG draw.
        """
        cached = self._cum
        if cached is None:
            weights = [
                0.0 if i in self.lost_bins else w
                for i, w in enumerate(self.bin_weights)
            ]
            cached = (list(accumulate(weights)), sum(weights))
            self._cum = cached
        return cached

    def category_total(self, category: UpdateCategory) -> int:
        """Planned events of ``category`` (before outage losses)."""
        return sum(count for _, count in self.participation.get(category, ()))

    def affected_pairs(self, category: UpdateCategory) -> Set[Pair]:
        return {pair for pair, _ in self.participation.get(category, ())}

    def affected_pairs_any(self) -> Set[Pair]:
        result: Set[Pair] = set()
        for pairs in self.participation.values():
            result.update(pair for pair, _ in pairs)
        return result

    def bin_counts(self, category: UpdateCategory) -> List[int]:
        """The category's events spread over the day's bins.

        Deterministic largest-remainder apportionment over the bin
        weights, with lost bins zeroed (data never collected).
        """
        total = self.category_total(category)
        weights = [
            0.0 if i in self.lost_bins else w
            for i, w in enumerate(self.bin_weights)
        ]
        weight_sum = sum(weights)
        if weight_sum <= 0 or total == 0:
            return [0] * len(weights)
        raw = [total * w / weight_sum for w in weights]
        counts = [int(r) for r in raw]
        remainder = total - sum(counts)
        fractional = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for i in fractional[:remainder]:
            counts[i] += 1
        return counts


class _PairState:
    """Generator-side mirror of the classifier's per-route state."""

    __slots__ = ("reachable", "variant", "ever_announced", "med")

    def __init__(self) -> None:
        self.reachable = False
        self.variant = 0
        self.ever_announced = False
        self.med: Optional[int] = None


class _ColumnSink:
    """Materialization sink appending primitive columns — no
    per-record dataclasses are ever constructed.

    Two ingest paths share one emission stream: scalar ``announce`` /
    ``withdraw`` calls append to Python lists, while the vectorized
    WWDup tier hands over whole :data:`RECORD_DTYPE` segments via
    :meth:`withdraw_block`.  Because WWDup is the *last* planned
    category, every scalar event precedes every segment in emission
    order, so ``finish``'s stable time sort resolves equal timestamps
    exactly as the all-scalar stream did.
    """

    __slots__ = ("times", "peer_ids", "asns", "nets", "plens", "kinds",
                 "attr_ids", "table", "segments")

    def __init__(self, table) -> None:
        self.times: List[float] = []
        self.peer_ids: List[int] = []
        self.asns: List[int] = []
        self.nets: List[int] = []
        self.plens: List[int] = []
        self.kinds: List[int] = []
        self.attr_ids: List[int] = []
        self.table = table
        self.segments: List[np.ndarray] = []

    def announce(self, time, peer_id, asn, prefix, attrs) -> None:
        self._push(time, peer_id, asn, prefix,
                   int(UpdateKind.ANNOUNCE), self.table.intern(attrs))

    def withdraw(self, time, peer_id, asn, prefix) -> None:
        self._push(time, peer_id, asn, prefix,
                   int(UpdateKind.WITHDRAW), int(NO_ATTR))

    def _push(self, time, peer_id, asn, prefix, kind, attr_id) -> None:
        self.times.append(time)
        self.peer_ids.append(peer_id)
        self.asns.append(asn)
        self.nets.append(prefix.network)
        self.plens.append(prefix.length)
        self.kinds.append(kind)
        self.attr_ids.append(attr_id)

    def withdraw_block(self, times, peer_ids, asns, nets, plens) -> None:
        """Append a batch of withdrawals already in emission order."""
        segment = np.empty(len(times), dtype=RECORD_DTYPE)
        segment["time"] = times
        segment["peer_id"] = peer_ids
        segment["peer_asn"] = asns
        segment["net"] = nets
        segment["plen"] = plens
        segment["kind"] = int(UpdateKind.WITHDRAW)
        segment["attr_id"] = int(NO_ATTR)
        self.segments.append(segment)

    def finish(self):
        scalar = np.empty(len(self.times), dtype=RECORD_DTYPE)
        scalar["time"] = self.times
        scalar["peer_id"] = self.peer_ids
        scalar["peer_asn"] = self.asns
        scalar["net"] = self.nets
        scalar["plen"] = self.plens
        scalar["kind"] = self.kinds
        scalar["attr_id"] = self.attr_ids
        # Stable time sort: equal timestamps keep emission order.
        return RecordColumns.from_segments(
            [scalar, *self.segments], self.table
        )


#: Dense-slab cell budget for the vectorized episode expansion: a
#: (rows × max_len) float64 scratch block stays ≲ 32 MiB.
_SLAB_CELLS = 1 << 22


def _slab_spans(lengths: np.ndarray, start: int, end: int):
    """Split rows ``[start, end)`` into spans whose dense
    ``rows × max(length)`` slab fits the cell budget.

    Episode lengths are geometric (mean 3) but a single row may run to
    thousands of events; recursive halving isolates such outliers so
    the padded expansion never allocates rows × global-max cells.
    Yields ``(start, end, width)`` in row order — order preservation is
    what keeps the flattened emission stream identical.
    """
    width = int(lengths[start:end].max())
    if (end - start) * width > _SLAB_CELLS and end - start > 1:
        mid = (start + end) // 2
        yield from _slab_spans(lengths, start, mid)
        yield from _slab_spans(lengths, mid, end)
    else:
        yield start, end, width


class TraceGenerator:
    """See module docstring."""

    __slots__ = (
        "population",
        "diurnal",
        "schedule",
        "targets",
        "constants",
        "seed",
        "_states",
        "_attr_cache",
    )

    def __init__(
        self,
        population: Optional[PeerPopulation] = None,
        diurnal: Optional[DiurnalModel] = None,
        schedule: Optional[IncidentSchedule] = None,
        targets: Optional[GeneratorTargets] = None,
        constants: PaperConstants = PAPER,
        seed: int = 0,
    ) -> None:
        self.population = population or PeerPopulation.synthesize(seed=seed)
        self.diurnal = diurnal or DiurnalModel()
        self.schedule = schedule or default_campaign_schedule(seed=seed)
        self.targets = targets or GeneratorTargets()
        self.constants = constants
        self.seed = seed
        self._states: Dict[Pair, _PairState] = {}
        self._attr_cache: Dict[
            Tuple[Pair, int, Optional[int]], PathAttributes
        ] = {}

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def _day_rng(self, day: int, salt: int = 0) -> random.Random:
        return random.Random((self.seed * 1_000_003 + day) * 31 + salt)

    def plan_day(self, day: int) -> DayPlan:
        """Deterministically plan one day (independent of other days)."""
        rng = self._day_rng(day)
        diurnal_weights = self.diurnal.bin_weights(day, BINS_PER_DAY)
        multipliers = [
            self.schedule.multiplier(day, i) for i in range(BINS_PER_DAY)
        ]
        weights = [w * m for w, m in zip(diurnal_weights, multipliers)]
        lost = self.schedule.lost_bins(day)
        # Two separate day-level factors: the diurnal level (weekday
        # factor + growth trend) scales both how many routes flap and
        # how much; the incident level (upgrades, storms) scales how
        # hard the affected routes flap — a maintenance spike touches
        # few extra routes but hammers them.
        diurnal_level = sum(diurnal_weights) / BINS_PER_DAY
        incident_level = sum(multipliers) / BINS_PER_DAY
        participation: Dict[UpdateCategory, List[Tuple[Pair, int]]] = {}
        pairs = self.population.all_pairs
        # Per-(day, peer) activity: which provider's customers are
        # having a bad day is independent of how big the provider is.
        sigma = self.targets.peer_activity_sigma
        peer_activity = {
            peer.asn: math.exp(rng.gauss(0.0, sigma))
            for peer in self.population.peers
        }
        for category in PLANNED_CATEGORIES:
            low, high = self.targets.participation[category]
            # Lognormal scatter around the geometric midpoint, scaled
            # by the diurnal level: the weekday/weekend cycle moves the
            # mean (the paper's usage correlation) while day-to-day
            # noise stays moderate, so the weekly spectral line is not
            # drowned by white noise.
            mid = math.sqrt(low * high)
            fraction = (
                mid
                * math.exp(rng.gauss(0.0, 0.18))
                * min(1.8, max(0.35, diurnal_level))
            )
            fraction = min(max(fraction, 0.7 * low), 1.2 * high, 0.95)
            n_active = int(fraction * len(pairs))
            active = self._allocate_active_pairs(
                rng, n_active, peer_activity
            )
            base_mean = self.targets.mean_events_per_pair[category]
            base_mean *= min(1.6, max(0.6, diurnal_level))
            base_mean *= min(10.0, incident_level)
            base_mean = max(1.0, base_mean)
            allocation: List[Tuple[Pair, int]] = []
            for pair in active:
                count = min(
                    self._geometric(rng, 1.0 / base_mean),
                    self.targets.max_events_per_pair,
                )
                allocation.append((pair, count))
            # Heavy flappers for the duplicate categories (Figure 7's
            # 200+-event pairs).  Their home peer is chosen by *who is
            # having a bad day* (activity), not by size — a heavy pair
            # on a small ISP is exactly the paper's observation.
            if category in (UpdateCategory.AADUP, UpdateCategory.WADUP):
                n_heavy = int(
                    round(self.targets.heavy_pair_probability * len(active))
                ) or (1 if rng.random()
                      < self.targets.heavy_pair_probability * len(active)
                      else 0)
                if n_heavy:
                    peers = self.population.peers
                    activity_weights = [peer_activity[p.asn] for p in peers]
                    for _ in range(n_heavy):
                        peer = rng.choices(
                            peers, weights=activity_weights, k=1
                        )[0]
                        prefix = rng.choice(peer.prefixes)
                        allocation.append(
                            (
                                (prefix, peer.asn),
                                rng.randint(*self.targets.heavy_pair_events),
                            )
                        )
            participation[category] = allocation
        # Dominator days: a handful of pairs with hundreds of AADiffs
        # (and matching AADups, zero withdrawals) from one peer.
        if rng.random() < self.targets.dominator_day_probability:
            peer = rng.choice(self.population.peers)
            dominators = rng.sample(
                peer.prefixes, min(self.targets.dominator_pairs, len(peer.prefixes))
            )
            lo, hi = self.targets.dominator_events
            for prefix in dominators:
                count = rng.randint(lo, hi)
                pair = (prefix, peer.asn)
                participation[UpdateCategory.AADIFF].append((pair, count))
                participation[UpdateCategory.AADUP].append((pair, count))
        return DayPlan(
            day=day,
            participation=participation,
            bin_weights=weights,
            lost_bins=lost,
        )

    def _allocate_active_pairs(
        self,
        rng: random.Random,
        n_active: int,
        peer_activity: Dict[int, float],
    ) -> List[Pair]:
        """Choose today's active pairs, peer-weighted by activity.

        Each peer's slice of the active set is proportional to
        ``prefix_count × activity``: a small ISP having a bad day can
        carry a large share of the day's flapping routes, which is how
        Figure 6's update shares decouple from table shares.
        """
        if n_active <= 0:
            return []
        peers = self.population.peers
        weights = [
            len(peer.prefixes) * peer_activity[peer.asn] for peer in peers
        ]
        total_weight = sum(weights) or 1.0
        active: List[Pair] = []
        remainder = n_active
        # Proportional allocation with per-peer caps; any overflow from
        # capped peers is redistributed in a second pass.
        quotas = []
        for peer, weight in zip(peers, weights):
            quota = min(
                int(round(n_active * weight / total_weight)),
                len(peer.prefixes),
            )
            quotas.append(quota)
        shortfall = n_active - sum(quotas)
        if shortfall > 0:
            for i, peer in enumerate(peers):
                room = len(peer.prefixes) - quotas[i]
                if room <= 0:
                    continue
                extra = min(room, shortfall)
                quotas[i] += extra
                shortfall -= extra
                if shortfall == 0:
                    break
        for peer, quota in zip(peers, quotas):
            if quota <= 0:
                continue
            if remainder <= 0:
                break
            quota = min(quota, remainder)
            remainder -= quota
            for prefix in rng.sample(peer.prefixes, quota):
                active.append((prefix, peer.asn))
        return active

    @staticmethod
    def _geometric(rng: random.Random, p: float) -> int:
        """Geometric variate ≥ 1 with success probability ``p``."""
        if p >= 1.0:
            return 1
        u = rng.random()
        return max(1, int(math.ceil(math.log(1.0 - u) / math.log(1.0 - p))))

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def day_records(
        self,
        day: int,
        pair_fraction: float = 0.05,
        plan: Optional[DayPlan] = None,
        categories: Optional[Sequence[UpdateCategory]] = None,
    ) -> List[UpdateRecord]:
        """Materialize one day's records for a subsample of its pairs.

        ``pair_fraction`` subsamples *pairs*, not events: surviving
        pairs keep their full per-day episode structure, so per-pair
        count distributions (Figure 7) and inter-arrival spectra
        (Figure 8) scale without bias in expectation — but heavy-tail
        pairs are rare, so for tail-sensitive analyses prefer a smaller
        population at ``pair_fraction=1.0`` over heavy subsampling.
        ``categories`` restricts materialization (e.g. the fine-grained
        figures never need the WWDup flood).
        """
        return self.day_columns(
            day, pair_fraction, plan, categories
        ).to_records()

    def day_columns(
        self,
        day: int,
        pair_fraction: float = 0.05,
        plan: Optional[DayPlan] = None,
        categories: Optional[Sequence[UpdateCategory]] = None,
        attrs: Optional[AttributeTable] = None,
    ) -> RecordColumns:
        """One day's records (see :meth:`day_records` for the
        subsampling contract) materialized directly into a
        :class:`~repro.core.columns.RecordColumns` batch — no
        per-record dataclasses are built.  Pass a shared ``attrs``
        table to keep attribute ids consistent across a campaign's
        days."""
        sink = _ColumnSink(attrs if attrs is not None else AttributeTable())
        self._materialize_day(day, pair_fraction, plan, categories, sink)
        return sink.finish()

    def _materialize_day(
        self,
        day: int,
        pair_fraction: float,
        plan: Optional[DayPlan],
        categories: Optional[Sequence[UpdateCategory]],
        sink: "_ColumnSink",
        vectorize: bool = True,
    ) -> None:
        """Drive ``sink`` through one day's emission stream.

        WWDup — the flood category, ~95% of a full day's records — is
        routed through the vectorized tier; every other category runs
        the scalar loop.  Both paths consume the *same* ``rng`` draws
        in the *same* order, so the split is invisible in the output.
        ``vectorize=False`` forces the all-scalar path (the
        :mod:`repro.verify.refgen` oracle the parity tests diff
        against).
        """
        plan = plan or self.plan_day(day)
        rng = self._day_rng(day, salt=1)
        wanted = tuple(categories) if categories else PLANNED_CATEGORIES
        for category in PLANNED_CATEGORIES:
            if category not in wanted:
                continue
            if vectorize and category is UpdateCategory.WWDUP:
                self._emit_wwdup_columns(
                    rng, plan, plan.participation[category],
                    pair_fraction, sink,
                )
                continue
            for pair, count in plan.participation[category]:
                if pair_fraction < 1.0 and rng.random() > pair_fraction:
                    continue
                self._emit_pair_day(rng, plan, category, pair, count, sink)

    # -- per-pair emission -----------------------------------------------------

    def _attrs(
        self, pair: Pair, variant: int, med: Optional[int] = None
    ) -> PathAttributes:
        """Deterministic attribute variants for a pair.

        Variant 0 is the primary path; variant 1 a longer alternate
        (different ASPATH → different forwarding tuple).  ``med`` sets
        a non-forwarding attribute: two announcements differing only in
        it share the forwarding tuple (AADup) but constitute *policy
        fluctuation*.

        Cached per (pair, variant, med): a pair re-announces the same
        bundle thousands of times a day, and rebuilding the frozen
        dataclass dominated the materialization profile.
        """
        key = (pair, variant, med)
        attrs = self._attr_cache.get(key)
        if attrs is not None:
            return attrs
        prefix, asn = pair
        # DET004 audit: `pair` is (Prefix, int) and Prefix is an int
        # tuple (network, length) — hash() of ints and int tuples is
        # value-based, not PYTHONHASHSEED-salted, so these origins are
        # replay-stable.  tests/test_generator_parity.py proves it
        # across hash seeds.
        origin = 1000 + (hash(pair) % 4000)
        if variant == 0:
            path = AsPath((asn, origin))
        else:
            transit = 5000 + (hash(pair) % 1000)
            path = AsPath((asn, transit, origin))
        peer = self.population.by_asn[asn]
        attrs = PathAttributes(as_path=path, next_hop=peer.peer_id, med=med)
        self._attr_cache[key] = attrs
        return attrs

    def _state(self, pair: Pair) -> _PairState:
        state = self._states.get(pair)
        if state is None:
            state = self._states[pair] = _PairState()
        return state

    def _sample_bin(self, rng: random.Random, plan: DayPlan) -> Optional[int]:
        """A bin index drawn ∝ bin weight (lost bins excluded).

        ``bisect_left`` over the plan's cached running sums returns the
        first index whose cumulative weight reaches the draw — the same
        bin the original linear scan (``acc += w; x <= acc``) stopped
        at, for the same single ``rng.random()`` draw.
        """
        cum, total = plan.materialization_weights()
        if total <= 0:
            return None
        x = rng.random() * total
        index = bisect_left(cum, x)
        return index if index < len(cum) else len(cum) - 1

    def _episode_period(self, rng: random.Random) -> float:
        """An episode's characteristic period: the Figure 8 mixture.

        An oscillating route repeats with ONE period — the 30-second
        update timer, the ~60-second CSU cycle, or some exogenous
        rhythm — so the period is drawn once per episode and all the
        episode's events follow it.  Drawing i.i.d. per gap would
        convolve the mixture with itself and smear the 30 s/1 m lines
        the paper measured.
        """
        u = rng.random()
        t = self.targets
        if u < t.spacing_30s_mass:
            return rng.uniform(29.5, 30.5)
        if u < t.spacing_30s_mass + t.spacing_60s_mass:
            return rng.uniform(58.0, 62.0)
        # Broad background: log-uniform from 2 s to 8 h.
        return math.exp(rng.uniform(math.log(2.0), math.log(8 * 3600.0)))

    def _emit_pair_day(
        self,
        rng: random.Random,
        plan: DayPlan,
        category: UpdateCategory,
        pair: Pair,
        count: int,
        sink,
    ) -> None:
        """Emit into ``sink`` the record sequence giving ``pair``
        exactly ``count`` events of ``category`` today (plus the
        uncategorized W/bootstrap records the sequences require)."""
        prefix, asn = pair
        peer = self.population.by_asn[asn]
        state = self._state(pair)
        day_start = plan.day * SECONDS_PER_DAY
        peer_id = peer.peer_id

        def announce(
            t: float, variant: int, med: Optional[int] = None
        ) -> None:
            sink.announce(
                t, peer_id, asn, prefix, self._attrs(pair, variant, med=med)
            )
            state.reachable = True
            state.ever_announced = True
            state.variant = variant
            state.med = med

        def withdraw(t: float) -> None:
            sink.withdraw(t, peer_id, asn, prefix)
            state.reachable = False

        # Split the count into episodes of a few events each.  Each
        # episode has ONE characteristic period: consecutive events of
        # the category repeat every ``period`` seconds, and the W half
        # of a WA pair precedes its A by a short outage ``micro_gap``
        # (a flap's down-time is seconds; the *repeat rate* is what the
        # timers quantize).
        day_end = day_start + SECONDS_PER_DAY
        remaining = count
        while remaining > 0:
            episode = min(remaining, self._geometric(rng, 1.0 / 3.0))
            remaining -= episode
            bin_index = self._sample_bin(rng, plan)
            if bin_index is None:
                return  # whole day lost
            t = day_start + (bin_index + rng.random()) * (
                SECONDS_PER_DAY / BINS_PER_DAY
            )
            period = self._episode_period(rng)
            micro_gap = min(rng.uniform(0.5, 4.0), period / 2.0)
            for _ in range(episode):
                if t >= day_end:
                    # The episode ran past midnight; the tail is
                    # dropped (the paper's days are hard boundaries).
                    break
                if category is UpdateCategory.AADUP:
                    if not state.reachable:
                        announce(t, state.variant)  # bootstrap (uncat/WA*)
                        t += period
                        if t >= day_end:
                            break
                    if (
                        rng.random()
                        < self.targets.policy_fluctuation_fraction
                    ):
                        # Policy fluctuation: same forwarding tuple,
                        # different MED.
                        new_med = 20 if state.med != 20 else 40
                        announce(t, state.variant, med=new_med)
                    else:
                        announce(t, state.variant, med=state.med)
                elif category is UpdateCategory.AADIFF:
                    if not state.reachable:
                        announce(t, state.variant)
                        t += period
                        if t >= day_end:
                            break
                    announce(t, 1 - state.variant)
                elif category is UpdateCategory.WADUP:
                    if state.reachable:
                        withdraw(t - micro_gap if t - micro_gap > day_start
                                 else t)
                    announce(t, state.variant)
                elif category is UpdateCategory.WADIFF:
                    if not state.ever_announced:
                        # First contact bootstraps reachability so the
                        # withdrawal below is PLAIN, not the category.
                        announce(t, state.variant)
                        t += period
                        if t >= day_end:
                            break
                    if state.reachable:
                        withdraw(t - micro_gap if t - micro_gap > day_start
                                 else t)
                    announce(t, 1 - state.variant)
                else:  # WWDUP: repeat withdrawals while unreachable
                    if state.reachable:
                        withdraw(t - micro_gap if t - micro_gap > day_start
                                 else t)  # PLAIN first
                    withdraw(t)
                t += period

    def _emit_wwdup_columns(
        self,
        rng: random.Random,
        plan: DayPlan,
        allocation: List[Tuple[Pair, int]],
        pair_fraction: float,
        sink: "_ColumnSink",
    ) -> None:
        """WWDup, vectorized: scalar draw-faithful episode *planning*
        followed by one batched timestamp expansion.

        The planning loop consumes exactly the ``rng.random()`` draws
        :meth:`_emit_pair_day` would (subsample, geometric episode
        length, bin, in-bin offset, period, micro-gap — six per
        episode) and records each episode as a ``(t0, period, length)``
        row; a pair entering the day reachable contributes a length-1
        pseudo-episode for its leading PLAIN withdrawal.  Rows then
        expand to timestamps with ``np.add.accumulate`` — whose
        sequential partial sums bit-exactly replicate the scalar
        ``t += period`` walk — and a prefix mask reproduces the
        midnight cut-off (``t >= day_end`` breaks before emitting, and
        the accumulated times are strictly increasing).  The masked
        C-order flatten is the scalar emission order, row by row.
        """
        cum, total = plan.materialization_weights()
        subsample = pair_fraction < 1.0
        rand = rng.random
        if total <= 0:
            # Whole day lost: the scalar path still consumes the
            # subsample draw and one geometric draw per surviving pair
            # (the bin sampler bails before drawing), creates the pair
            # state, and emits nothing.
            for pair, count in allocation:
                if subsample and rand() > pair_fraction:
                    continue
                self._state(pair)
                if count > 0:
                    self._geometric(rng, 1.0 / 3.0)
            return

        targets = self.targets
        day_start = plan.day * SECONDS_PER_DAY
        day_end = day_start + SECONDS_PER_DAY
        bin_width = SECONDS_PER_DAY / BINS_PER_DAY
        mass_30 = targets.spacing_30s_mass
        mass_60 = mass_30 + targets.spacing_60s_mass
        log_lo = math.log(2.0)
        log_span = math.log(8 * 3600.0) - log_lo
        geo_denom = math.log(1.0 - (1.0 / 3.0))
        n_bins = len(cum)
        by_asn = self.population.by_asn
        ceil, log, exp = math.ceil, math.log, math.exp

        # Episode rows (+ lead pseudo-rows), in emission order.
        t0s: List[float] = []
        periods: List[float] = []
        lengths: List[int] = []
        # One entry per emitting pair block; rows map to blocks.
        block_rows: List[int] = []
        block_peer: List[int] = []
        block_asn: List[int] = []
        block_net: List[int] = []
        block_plen: List[int] = []
        push_t0 = t0s.append
        push_period = periods.append
        push_length = lengths.append

        for pair, count in allocation:
            if subsample and rand() > pair_fraction:
                continue
            state = self._state(pair)
            rows_before = len(t0s)
            lead = state.reachable
            remaining = count
            while remaining > 0:
                # Inlined _geometric(rng, 1/3): episode burst length.
                episode = ceil(log(1.0 - rand()) / geo_denom)
                if episode < 1:
                    episode = 1
                if episode > remaining:
                    episode = remaining
                remaining -= episode
                # Inlined _sample_bin over the cached running sums.
                bin_index = bisect_left(cum, rand() * total)
                if bin_index == n_bins:
                    bin_index = n_bins - 1
                t0 = day_start + (bin_index + rand()) * bin_width
                # Inlined _episode_period: the Figure 8 mixture.
                u = rand()
                if u < mass_30:
                    period = 29.5 + 1.0 * rand()
                elif u < mass_60:
                    period = 58.0 + 4.0 * rand()
                else:
                    period = exp(log_lo + log_span * rand())
                if lead:
                    # The pair entered the day reachable: its first
                    # event is preceded by a PLAIN withdrawal at the
                    # clamped micro-gap offset (the first event always
                    # lands before midnight, so it always emits).
                    lead = False
                    micro_gap = 0.5 + 3.5 * rand()
                    half = period / 2.0
                    if micro_gap > half:
                        micro_gap = half
                    t_lead = t0 - micro_gap
                    push_t0(t_lead if t_lead > day_start else t0)
                    push_period(0.0)
                    push_length(1)
                else:
                    # The micro-gap draw happens every episode in the
                    # scalar loop; its value only matters on the lead.
                    rand()
                push_t0(t0)
                push_period(period)
                push_length(episode)
            rows = len(t0s) - rows_before
            if rows:
                state.reachable = False
                prefix, asn = pair
                block_rows.append(rows)
                block_peer.append(by_asn[asn].peer_id)
                block_asn.append(asn)
                block_net.append(prefix.network)
                block_plen.append(prefix.length)

        n_rows = len(t0s)
        if not n_rows:
            return
        t0_arr = np.asarray(t0s, dtype=np.float64)
        period_arr = np.asarray(periods, dtype=np.float64)
        length_arr = np.asarray(lengths, dtype=np.int64)
        times_parts: List[np.ndarray] = []
        count_parts: List[np.ndarray] = []
        for start, end, width in _slab_spans(length_arr, 0, n_rows):
            slab = np.empty((end - start, width), dtype=np.float64)
            slab[:, 0] = t0_arr[start:end]
            if width > 1:
                slab[:, 1:] = period_arr[start:end, None]
            acc = np.add.accumulate(slab, axis=1)
            mask = (np.arange(width) < length_arr[start:end, None]) & (
                acc < day_end
            )
            times_parts.append(acc[mask])
            count_parts.append(np.count_nonzero(mask, axis=1))
        times = (
            times_parts[0]
            if len(times_parts) == 1
            else np.concatenate(times_parts)
        )
        per_row = (
            count_parts[0]
            if len(count_parts) == 1
            else np.concatenate(count_parts)
        )
        # Row -> owning block -> per-event metadata, by two repeats.
        row_block = np.repeat(
            np.arange(len(block_rows)),
            np.asarray(block_rows, dtype=np.int64),
        )
        owner = np.repeat(row_block, per_row)
        sink.withdraw_block(
            times,
            np.asarray(block_peer, dtype=np.uint32)[owner],
            np.asarray(block_asn, dtype=np.uint32)[owner],
            np.asarray(block_net, dtype=np.uint32)[owner],
            np.asarray(block_plen, dtype=np.uint8)[owner],
        )

    # ------------------------------------------------------------------
    # aggregate tier conveniences
    # ------------------------------------------------------------------

    def campaign_bin_series(
        self,
        days: Sequence[int],
        categories: Sequence[UpdateCategory],
    ) -> Dict[UpdateCategory, List[int]]:
        """Concatenated per-bin counts over ``days`` per category —
        the Figure 3/4/5 input, no records materialized."""
        series: Dict[UpdateCategory, List[int]] = {c: [] for c in categories}
        for day in days:
            plan = self.plan_day(day)
            for category in categories:
                series[category].extend(plan.bin_counts(category))
        return series

    def reset_state(self) -> None:
        """Forget per-pair state (fresh campaign)."""
        self._states.clear()

    def state_payload(self) -> dict:
        """Checkpoint the cross-day per-pair state as plain data.

        The campaign's spill chunks store this in their footer so a
        resumed shard can load finished days from disk and *continue
        generating* from the exact state the original run had — the
        generator carries reachability/variant/MED memory across days,
        so skipping a day's RNG is only sound with its end state
        restored.  Columnar and key-sorted, so the payload is canonical
        (independent of dict insertion order) and compact.
        """
        items = sorted(
            self._states.items(),
            key=lambda kv: (kv[0][0].network, kv[0][0].length, kv[0][1]),
        )
        nets: List[int] = []
        plens: List[int] = []
        asns: List[int] = []
        flags: List[int] = []
        meds: List[int] = []
        for (prefix, asn), state in items:
            nets.append(prefix.network)
            plens.append(prefix.length)
            asns.append(asn)
            flags.append(
                int(state.reachable)
                | int(state.ever_announced) << 1
                | int(state.variant) << 2
                | int(state.med is not None) << 3
            )
            if state.med is not None:
                meds.append(state.med)
        return {
            "net": nets, "plen": plens, "asn": asns,
            "flags": flags, "med": meds,
        }

    def restore_state(self, payload: dict) -> None:
        """Replace per-pair state with a :meth:`state_payload`
        checkpoint (the inverse; prior state is discarded)."""
        states: Dict[Pair, _PairState] = {}
        meds = iter(payload["med"])
        for net, plen, asn, flags in zip(
            payload["net"], payload["plen"], payload["asn"], payload["flags"]
        ):
            state = _PairState()
            state.reachable = bool(flags & 1)
            state.ever_announced = bool(flags & 2)
            state.variant = (flags >> 2) & 1
            state.med = next(meds) if flags & 8 else None
            states[(Prefix(int(net), int(plen)), int(asn))] = state
        self._states = states


def campaign_generator(
    n_peers: int,
    total_prefixes: int,
    population_seed: int,
    generator_seed: Optional[int] = None,
) -> TraceGenerator:
    """A generator for one campaign shard.

    The peer population is synthesized from ``population_seed`` alone,
    so every shard (and every exchange) of a campaign sees the same
    providers and table shares; ``generator_seed`` (default: the
    population seed) drives the day plans and record draws, which is
    how per-exchange streams differ over one shared population.  Two
    calls with equal arguments build generators that produce identical
    streams — the determinism the sharded campaign runner rests on.
    """
    population = PeerPopulation.synthesize(
        n_peers=n_peers, total_prefixes=total_prefixes, seed=population_seed
    )
    seed = population_seed if generator_seed is None else generator_seed
    return TraceGenerator(population=population, seed=seed)
