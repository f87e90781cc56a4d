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
   classifier does, one array row per pair).  Every category is array
   work over the day's MT19937 stream, read in blocks
   (:class:`_DrawStream`): per pair only the budget search is
   sequential.  Each draw keeps the role :mod:`repro.verify.refgen`'s
   per-pair loop gives it, so the output is byte-identical to that
   oracle's; no attribute or pair-state object is built.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..bgp.attributes import AsPath, Origin
from ..collector.record import UpdateKind
from ..collector.store import SECONDS_PER_DAY
from ..core.columns import (
    NO_ATTR,
    RECORD_DTYPE,
    AttributeTable,
    RecordColumns,
    first_of_run,
    group_order,
    stable_argsort,
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
    #: pairs flap in long bursts: ISP-I's 2.4M withdrawals over 14,112
    #: prefixes is ~176 per pair in one day.
    mean_events_per_pair: Dict[UpdateCategory, float] = field(
        default_factory=lambda: {
            UpdateCategory.WADIFF: 2.5,
            UpdateCategory.AADIFF: 3.5,
            UpdateCategory.WADUP: 4.0,
            UpdateCategory.AADUP: 5.0,
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
    _cum: Optional[Tuple[List[float], float, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def materialization_weights(self) -> Tuple[List[float], float, np.ndarray]:
        """The cumulative materialization bin weights (lost bins
        zeroed), their total, and the bin a ``bisect`` finds for each
        of the 4097 points ``k/4096 · total`` (a bin draw's cell edges).

        The running sums are built with the same left-to-right float
        additions as the linear scan of :mod:`repro.verify.refgen`'s
        bin sampler, so a ``bisect`` over them lands on the *identical*
        bin for any draw — per-episode sampling is an O(log bins)
        lookup, not an O(bins) rebuild, without moving a single draw.
        """
        cached = self._cum
        if cached is None:
            weights = self._collected_weights()
            cum, total = list(accumulate(weights)), sum(weights)
            edge = np.searchsorted(cum, np.arange(4097) / 4096 * total)
            cached = self._cum = (cum, total, edge)
        return cached

    def _collected_weights(self) -> List[float]:
        """The bin weights with lost bins zeroed (data never collected)."""
        return [0.0 if i in self.lost_bins else w
                for i, w in enumerate(self.bin_weights)]

    def category_total(self, category: UpdateCategory) -> int:
        """Planned events of ``category`` (before outage losses)."""
        return sum(count for _, count in self.participation.get(category, ()))

    def affected_pairs(self, category: UpdateCategory) -> Set[Pair]:
        return {pair for pair, _ in self.participation.get(category, ())}

    def affected_pairs_any(self) -> Set[Pair]:
        return {pair for pairs in self.participation.values()
                for pair, _ in pairs}

    def bin_counts(self, category: UpdateCategory) -> List[int]:
        """The category's events spread over the day's bins.

        Deterministic largest-remainder apportionment over the bin
        weights, with lost bins zeroed (data never collected).
        """
        total = self.category_total(category)
        weights = self._collected_weights()
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


#: The generator-side mirror of the classifier's per-route state, one
#: row per pair position.  ``seen`` marks a pair some day has walked
#: (what a checkpoint holds); ``med`` indexes :data:`_MEDS`.
_STATE_DTYPE = np.dtype([("seen", "?"), ("reachable", "?"), ("ever", "?"),
                         ("variant", "u1"), ("med", "u1")])


#: Draws one episode takes from the day's stream, in the per-pair
#: loop's order: burst length, bin, in-bin offset, period selector,
#: period, micro-gap.  AADup then takes one policy draw per event it
#: emits, so only the other categories keep a fixed stride.
_EPISODE_DRAWS = 6

#: Doubles drawn from the stream per refill.  This, not the day's
#: size, bounds what the emission holds at once: one window of draws
#: and the episodes planned from it.
_STREAM_BLOCK = 1 << 17

#: ``log(1 - p)`` of the episode burst length's geometric law, p = 1/3.
_BURST_LOG = math.log(1.0 - 1.0 / 3.0)

#: The background period is log-uniform from 2 s to 8 h.
_LOG_2S = math.log(2.0)
_LOG_SPAN = math.log(8 * 3600.0) - _LOG_2S

#: Announced MED values by code; AADup's policy hits walk None→20→40→20.
_MEDS = (None, 20, 40)


def _burst_lengths(draws: np.ndarray) -> np.ndarray:
    """:meth:`TraceGenerator._geometric` at ``p = 1/3`` over an array
    of uniform draws.

    ``np.log`` is not libm's ``log`` to the last bit, but the quotient
    only passes through ``ceil``: a last-bit difference changes the
    result only where the quotient sits on an integer, and those
    elements are recomputed with ``math.log``.  A burst is at most 91
    events (a draw is at most 1 − 2⁻⁵³), so 16 bits hold it — and
    keep the length sort in :func:`_episode_times` a radix sort.
    """
    ratio = np.log(1.0 - draws) / _BURST_LOG
    for i in np.flatnonzero(np.abs(ratio - np.rint(ratio)) < 1e-9).tolist():
        ratio[i] = math.log(1.0 - draws[i]) / _BURST_LOG
    return np.maximum(np.ceil(ratio), 1.0).astype(np.int16)


class _DrawStream:
    """The day rng's MT19937 stream from its first draw, drawn a block
    at a time.

    ``random.Random.random()`` and NumPy's legacy MT19937 double are
    the same function of the same state (``(a >> 5, b >> 6) →
    (a·2²⁶ + b) / 2⁵³``), so a ``RandomState`` loaded with the Python
    generator's state continues its stream position for position.
    ``window`` holds the drawn doubles not yet consumed (``at`` is the
    next one); :meth:`more` drops the consumed head and appends a
    block, so every position is drawn once.
    """

    __slots__ = ("_source", "window", "at", "lengths", "_sums")

    def __init__(self, rng: random.Random) -> None:
        _, words, _ = rng.getstate()
        # Seeded, then overwritten: the seed never produces a draw.
        self._source = np.random.RandomState(0)
        self._source.set_state(
            ("MT19937", np.array(words[:-1], dtype=np.uint32), words[-1])
        )
        self.window = np.empty(0, dtype=np.float64)
        self._start_window()

    def _start_window(self) -> None:
        self.at = 0
        #: Burst length of an episode *starting* at each window
        #: position, filled lane by lane (0 = lane not computed).
        self.lengths = np.zeros(len(self.window), dtype=np.int16)
        self._sums: List[Optional[np.ndarray]] = [None] * _EPISODE_DRAWS

    def more(self) -> None:
        """Extend the unconsumed tail of the window by one block.  The
        spent window and its lane transforms go before the block is
        drawn, so a refill holds the tail, the block and their join."""
        tail = self.window[self.at:].copy()
        del self.window, self.lengths, self._sums
        self.window = np.concatenate(
            (tail, self._source.random_sample(_STREAM_BLOCK))
        )
        self._start_window()

    def lane(self, lane: int) -> np.ndarray:
        """Running sum of the burst lengths drawn at
        ``window[lane::6]``.

        Consecutive episodes of a pair sit six draws apart, so they
        share a lane and a pair's event budget is one search in its
        running sum (at ``pair_fraction = 1`` a non-AADup category's
        pairs share one too).  A lane is transformed on first use:
        subsampling and AADup's policy draws shift the lane.
        """
        sums = self._sums[lane]
        if sums is None:
            lengths = _burst_lengths(self.window[lane::_EPISODE_DRAWS])
            self.lengths[lane::_EPISODE_DRAWS] = lengths
            # A window's bursts sum to under 2**31 (≤ 91 events each).
            sums = self._sums[lane] = np.cumsum(lengths, dtype=np.int32)
        return sums


def _episode_times(
    t0: np.ndarray, period: np.ndarray, length: np.ndarray
) -> np.ndarray:
    """Each row's ``length`` event times ``t0, t0 + period,
    (t0 + period) + period, …``, rows back to back.

    Rows are taken longest first, so the rows still running after
    ``k`` steps are a prefix that only shrinks: step ``k`` is one
    in-place add over that prefix — the same sequential float adds as
    the scalar ``t += period`` — scattered into each row's ``k``-th
    cell.  Σ length cells are touched, not rows × the longest row.
    """
    order = np.argsort(length, kind="stable")[::-1]
    longest_first = length[order]
    cell = (np.cumsum(length) - length)[order]
    now = t0[order]
    step = period[order]
    times = np.empty(int(length.sum()), dtype=np.float64)
    times[cell] = now
    running = len(order) - np.searchsorted(
        longest_first[::-1], np.arange(1, longest_first[0]), side="right"
    )
    for rows in running.tolist():
        now = now[:rows]
        now += step[:rows]
        cell = cell[:rows]
        cell += 1
        times[cell] = now
    return times


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """``parts`` joined into one array, the list emptied: each part is
    freed once the joined column exists, not when its caller returns."""
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _earlier(keys: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per element, the sum of ``values`` (non-negative) over the earlier
    elements with the same key; and a mask of each key's last element."""
    order, first = group_order((keys,))
    ranked = values[order]
    before = np.cumsum(ranked) - ranked
    before -= np.maximum.accumulate(np.where(first, before, 0))
    earlier = np.empty_like(before)
    earlier[order] = before
    last = np.zeros(len(keys), dtype=bool)
    last[order[np.append(first[1:], True)]] = True
    return earlier, last


class TraceGenerator:
    """See module docstring."""

    __slots__ = (
        "population", "diurnal", "schedule", "targets", "constants", "seed",
        "_pairs", "_index", "_state", "_records", "_bundles",
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
        # Per-pair arrays, indexed by a pair's *position*: population
        # order, then any pair met later (a plan's or a checkpoint's).
        # ``_records`` holds each pair's record with its identity set.
        self._pairs: List[Pair] = []
        self._index: Dict[Pair, int] = {}
        self._state = np.zeros(0, dtype=_STATE_DTYPE)
        self._records = np.zeros(0, dtype=RECORD_DTYPE)
        self._bundles: Dict[int, tuple] = {}  # see _bundle
        self._positions(self.population.all_pairs)

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

    def day_columns(
        self,
        day: int,
        pair_fraction: float = 0.05,
        plan: Optional[DayPlan] = None,
        categories: Optional[Sequence[UpdateCategory]] = None,
        attrs: Optional[AttributeTable] = None,
    ) -> RecordColumns:
        """Materialize one day's records for a subsample of its pairs,
        directly into a :class:`~repro.core.columns.RecordColumns`
        batch — no per-record dataclasses are built.

        ``pair_fraction`` subsamples *pairs*, not events: surviving
        pairs keep their full per-day episode structure, so per-pair
        count distributions (Figure 7) and inter-arrival spectra
        (Figure 8) scale without bias in expectation — but heavy-tail
        pairs are rare, so for tail-sensitive analyses prefer a smaller
        population at ``pair_fraction=1.0`` over heavy subsampling.
        ``categories`` restricts materialization (e.g. the fine-grained
        figures never need the WWDup flood); ``categories=()`` is an
        empty day.  Pass a shared ``attrs`` table to keep attribute ids
        consistent across a campaign's days.
        """
        if not 0.0 < pair_fraction <= 1.0:
            raise ValueError("pair_fraction must be in (0, 1]")
        plan = plan or self.plan_day(day)
        table = attrs if attrs is not None else AttributeTable()
        # Per expanded window: each event's time, pair position, attr_id.
        events: Tuple[List[np.ndarray], ...] = (
            [np.empty(0)], [np.empty(0, np.int32)], [np.empty(0, np.uint32)]
        )
        stream = _DrawStream(self._day_rng(day, salt=1))
        wanted = PLANNED_CATEGORIES if categories is None else categories
        for category in [c for c in PLANNED_CATEGORIES if c in wanted]:
            self._emit_category(
                stream, plan, category, pair_fraction, table, events
            )
        # The assembly holds the day's events and about one column more:
        # the draw window goes first, each column's window parts as it
        # is joined, and each sorted column once it is in the records.
        del stream
        time, position, attr_id = map(_joined, events)
        # Stable: equal timestamps keep emission order, as the per-pair
        # loop's record-at-a-time stream does.
        order, time = stable_argsort(time)
        attr_id = np.take(attr_id, order)
        position = np.take(position, order)
        del order
        data = np.empty(len(time), dtype=RECORD_DTYPE)
        data["time"] = time
        del time
        data["attr_id"] = attr_id
        data["kind"] = np.where(
            attr_id == NO_ATTR,
            np.uint8(UpdateKind.WITHDRAW), np.uint8(UpdateKind.ANNOUNCE),
        )
        del attr_id
        # The pair identity: its records' fields, one gather each.
        index = position.astype(np.intp)
        del position
        for name in ("peer_id", "peer_asn", "net", "plen"):
            data[name] = np.take(self._records[name], index)
        return RecordColumns(data, table)

    # -- emission -------------------------------------------------------------

    def _positions(self, pairs: Iterable[Pair]) -> List[int]:
        """Each pair's position, a pair not met before taking the next."""
        index = self._index
        positions = [index.setdefault(pair, len(index)) for pair in pairs]
        if len(index) > len(self._pairs):
            added = list(index)[len(self._pairs):]
            self._pairs += added
            prefixes, asns = zip(*added)
            nets, plens = zip(*prefixes)  # a Prefix is (network, length)
            by_asn = self.population.by_asn
            ids = {asn: by_asn[asn].peer_id for asn in dict.fromkeys(asns)}
            rows = np.zeros(len(added), dtype=RECORD_DTYPE)
            rows["peer_id"] = [*map(ids.__getitem__, asns)]
            rows["peer_asn"], rows["net"], rows["plen"] = asns, nets, plens
            self._records = np.concatenate((self._records, rows))
            self._state = np.concatenate(
                (self._state, np.zeros(len(added), dtype=_STATE_DTYPE))
            )
        return positions

    def _bundle(self, key: int) -> tuple:
        """The :func:`~repro.bgp.attributes.attribute_tuple` announced
        under ``key = (position·2 + variant)·3 + MED code``, cached.

        Variant 0 is the primary path, variant 1 a longer alternate (a
        different forwarding tuple).  Announcements differing only in
        the MED share the forwarding tuple (AADup) but constitute
        *policy fluctuation*."""
        bundle = self._bundles.get(key)
        if bundle is None:
            position, code = divmod(key, 6)
            pair = self._pairs[position]
            _, asn = pair
            # DET004 audit: `pair` is (Prefix, int), Prefix an int tuple:
            # hash() is value-based, not PYTHONHASHSEED-salted, as
            # tests/test_generator_parity.py proves across hash seeds.
            hops = (asn, 1000 + hash(pair) % 4000)
            if code >= 3:
                hops = (asn, 5000 + hash(pair) % 1000, hops[1])
            bundle = self._bundles[key] = (
                self.population.by_asn[asn].peer_id,
                tuple(AsPath(hops)),  # AsPath checks each AS number
                int(Origin.IGP), _MEDS[code % 3], None, (), False, None,
            )
        return bundle

    def _emit_category(
        self,
        stream: _DrawStream,
        plan: DayPlan,
        category: UpdateCategory,
        pair_fraction: float,
        table: AttributeTable,
        events: Tuple[List[np.ndarray], ...],
    ) -> None:
        """One category's allocation as array work over the day's draw
        stream.

        The walk does per pair only what is sequential: a lane's running
        burst lengths say where the pair's ``count`` is used up, and its
        episodes in the current window become one *run*.  AADup walks an
        episode at a time: its policy draws depend on whether the
        episode is the pair's *lead* (see :meth:`_expand_runs`, which
        turns a window's runs into records).
        """
        allocation = plan.participation[category]
        positions = self._positions(pair for pair, _ in allocation)
        cum, total, _ = plan.materialization_weights()
        day_start = plan.day * SECONDS_PER_DAY
        day_end = day_start + SECONDS_PER_DAY
        aadup = category is UpdateCategory.AADUP
        # The pairs due a lead: up for WWDup, down for the others.
        due = self._state["reachable"] == (category is UpdateCategory.WWDUP)
        leading = due.tolist() if aadup else []
        bin_width = SECONDS_PER_DAY / BINS_PER_DAY
        mass_30 = self.targets.spacing_30s_mass
        mass_60 = mass_30 + self.targets.spacing_60s_mass
        # The runs planned from the current window, in emission order:
        # window offset of the first draw, episodes, clipped length of
        # the last burst (0 = unclipped), pair position.
        runs: Tuple[list, ...] = ([], [], [], [])
        starts, counts, clips, where = runs
        walked: List[int] = []

        def expand() -> None:
            for column, part in zip(events, self._expand_runs(
                stream, plan, category, runs, due, table
            )):
                column.append(part)
            for column in runs:
                column.clear()

        def refill() -> None:
            if starts:
                expand()
            stream.more()

        def draw() -> float:
            if stream.at == len(stream.window):
                refill()
            stream.at += 1
            return stream.window[stream.at - 1]

        for position, (_, count) in zip(positions, allocation):
            if pair_fraction < 1.0 and draw() > pair_fraction:
                continue
            walked.append(position)
            if count <= 0:
                continue
            if total <= 0:
                # Whole day lost: the pair's first burst length is
                # drawn, finds no bin to go to, and the pair gives up.
                draw()
                continue
            remaining = count
            while remaining > 0:
                at = stream.at
                whole = (len(stream.window) - at) // _EPISODE_DRAWS
                if not whole:
                    refill()
                    continue
                if aadup:
                    # One episode: its stride is six draws plus one per
                    # event (not bootstrap) it gets in before midnight.
                    lead = leading[position]
                    burst, place, offset, selector, spread = (
                        stream.window[at:at + 5].tolist()
                    )
                    episodes = 1
                    clip = min(remaining, max(1, math.ceil(
                        math.log(1.0 - burst) / _BURST_LOG
                    )))
                    remaining -= clip
                    t = day_start + (min(
                        bisect_left(cum, place * total), len(cum) - 1
                    ) + offset) * bin_width
                    if selector < mass_30:
                        period = 29.5 + 1.0 * spread
                    elif selector < mass_60:
                        period = 58.0 + 4.0 * spread
                    else:
                        period = math.exp(_LOG_2S + _LOG_SPAN * spread)
                    cells = 0
                    while cells < clip + lead and t < day_end:
                        cells += 1
                        t += period
                    if not cells:
                        stream.at += _EPISODE_DRAWS
                        continue
                    leading[position] = False
                    stride = _EPISODE_DRAWS + cells - lead
                    while stream.at + stride > len(stream.window):
                        refill()
                else:
                    sums = stream.lane(at % _EPISODE_DRAWS)
                    first = at // _EPISODE_DRAWS
                    before = sums.item(first - 1) if first else 0
                    last = int(sums.searchsorted(before + remaining))
                    if last < first + whole:
                        # The budget runs out in this window: the last
                        # burst is cut to what is left of it.
                        episodes = last - first + 1
                        clip = remaining + before - (
                            sums.item(last - 1) if last else 0
                        )
                        remaining = 0
                    else:
                        episodes = whole
                        clip = 0
                        remaining -= sums.item(first + whole - 1) - before
                    stride = episodes * _EPISODE_DRAWS
                starts.append(stream.at)
                counts.append(episodes)
                clips.append(clip)
                where.append(position)
                stream.at += stride
        self._state["seen"][walked] = True
        if starts:
            expand()

    def _expand_runs(
        self,
        stream: _DrawStream,
        plan: DayPlan,
        category: UpdateCategory,
        runs: Tuple[list, ...],
        due: np.ndarray,
        table: AttributeTable,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The events of the episode ``runs`` planned from
        ``stream.window``, as array expressions in the per-pair loop's
        operand order.

        An episode is a row of *cells*, one per event plus a leading
        bootstrap cell where its lead bootstraps; the cells at or past
        midnight are dropped.  A WA* event after the pair's first, and
        a WWDup lead, follow a withdrawal one micro-gap earlier.  Only
        ``exp`` stays libm: the background period reaches a timestamp,
        and ``np.exp`` differs from ``math.exp`` in the last bit.
        """
        starts, counts, clips, where = runs
        window = stream.window
        cum, total, edge = plan.materialization_weights()
        day_start = plan.day * SECONDS_PER_DAY
        day_end = day_start + SECONDS_PER_DAY
        bin_width = SECONDS_PER_DAY / BINS_PER_DAY
        mass_30 = self.targets.spacing_30s_mass
        mass_60 = mass_30 + self.targets.spacing_60s_mass

        run_position = np.asarray(where, dtype=np.intp)
        per_run = np.asarray(counts, dtype=np.intp)
        ends = np.cumsum(per_run)
        firsts = ends - per_run
        # Window offset of every episode's first draw.
        offset = np.repeat(
            np.asarray(starts, dtype=np.intp) - _EPISODE_DRAWS * firsts,
            per_run,
        ) + _EPISODE_DRAWS * np.arange(ends[-1])
        length = stream.lengths[offset]
        clip = np.asarray(clips, dtype=np.int16)
        clipped = np.flatnonzero(clip)
        length[ends[clipped] - 1] = clip[clipped]
        # A bin draw's 1/4096 of [0, 1) names its bin unless a running
        # weight falls inside it (draw · total is monotone in the draw).
        place = window[offset + 1]
        cell = (place * 4096).astype(np.intp)
        bins = edge[cell]
        near = np.flatnonzero(edge[cell + 1] != bins)
        bins[near] = np.searchsorted(cum, place[near] * total)
        bins = np.minimum(bins, len(cum) - 1)
        t0 = day_start + (bins + window[offset + 2]) * bin_width
        # Per-episode and per-cell temporaries are dropped after their
        # last reader: a window's expansion, not the events it leaves,
        # sets the emission's peak.
        del place, cell, bins, near
        # The Figure 8 mixture: 30 s timer, 60 s line, broad background.
        selector = window[offset + 3]
        spread = window[offset + 4]
        period = np.where(
            selector < mass_30, 29.5 + 1.0 * spread, 58.0 + 4.0 * spread
        )
        background = np.flatnonzero(selector >= mass_60)
        period[background] = list(map(
            math.exp, (_LOG_2S + _LOG_SPAN * spread[background]).tolist()
        ))
        del selector, spread, background
        episode_run = np.repeat(np.arange(len(starts)), per_run)
        # A due pair's lead is its first episode to start before
        # midnight: its first, unless an in-bin offset rounded an
        # episode's start up to midnight itself.  AA* bootstrap a route
        # found down, WADiff one never announced, without MED.
        begun = np.flatnonzero(t0 < day_end)
        first = begun[first_of_run(episode_run[begun])]  # per run
        pending = due[run_position[episode_run[first]]]
        first = first[pending]
        _, lead = np.unique(run_position[episode_run[first]], True)
        led = np.sort(first[lead])
        del begun, first, pending, lead
        position = run_position[episode_run[led]]
        due[position] = False
        state = self._state
        booted = np.full(len(led), category in (
            UpdateCategory.AADIFF, UpdateCategory.AADUP
        ))
        if category is UpdateCategory.WADIFF:
            booted = ~state["ever"][position]
        announces = category is not UpdateCategory.WWDUP
        state["reachable"][position] = announces
        state["ever"][position] |= announces
        state["med"][position[booted]] = 0
        boot = np.zeros(len(offset), dtype=bool)
        boot[led[booted]] = True
        length += boot
        times = _episode_times(t0, period, length)
        del t0
        row = np.cumsum(length) - length  # every episode's first cell
        # Days are hard boundaries: an episode's tail past midnight is
        # dropped (times only grow along a row).
        keep = np.flatnonzero(times < day_end)
        time = times[keep]
        del times
        # A lead episode starts before midnight, so its first cell is kept.
        lead_cells = np.searchsorted(keep, row[led])
        if category is UpdateCategory.WWDUP:
            cell_run = np.repeat(episode_run, length)[keep]
            withdrawn, episode = lead_cells, led
        else:
            cell_episode = np.repeat(np.arange(len(length)), length)[keep]
            cell_run = episode_run[cell_episode]
            attr_id = self._announced(
                window, category, run_position, cell_run, cell_episode,
                offset, boot, keep - row[cell_episode], table,
            )
            # Every WA* event but a pair's first or bootstrap follows
            # a withdrawal; AA* events none.
            ahead = np.full(len(time), category in (
                UpdateCategory.WADIFF, UpdateCategory.WADUP
            ))
            ahead[lead_cells] = False
            withdrawn = np.flatnonzero(ahead)
            episode = cell_episode[withdrawn]
            attr_id = np.insert(attr_id, withdrawn, NO_ATTR)
        del keep
        gap = np.minimum(
            0.5 + 3.5 * window[offset[episode] + 5], period[episode] / 2.0
        )
        early = time[withdrawn] - gap
        lead_time = np.where(early > day_start, early, time[withdrawn])
        time = np.insert(time, withdrawn, lead_time)
        # Pair positions are int32 from here on: the day holds one per
        # event.
        event_position = run_position.astype(np.int32)[cell_run]
        del cell_run
        event_position = np.insert(
            event_position, withdrawn, event_position[withdrawn]
        )
        if category is UpdateCategory.WWDUP:
            attr_id = np.broadcast_to(NO_ATTR, time.shape)
        return time, event_position, attr_id

    def _announced(
        self, window: np.ndarray, category: UpdateCategory,
        run_position: np.ndarray, cell_run: np.ndarray,
        cell_episode: np.ndarray, offset: np.ndarray, boot: np.ndarray,
        step: np.ndarray, table: AttributeTable,
    ) -> np.ndarray:
        """The attribute id of every kept announce cell, interned in
        emission order.  ``step`` is a cell's place in its row.  Variant
        and MED carry from run to run of a pair: through its earlier
        runs in the window, and its row of the state array."""
        n_runs = len(run_position)
        booted_row = boot[cell_episode]
        counted = ~(booted_row & (step == 0))

        def running(flags: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            # Each cell's running count of flags in its run; run totals.
            totals = np.bincount(cell_run[flags], minlength=n_runs)
            before = (np.cumsum(totals) - totals)[cell_run]
            return np.cumsum(flags) - before, totals

        rank, events = running(counted)
        state = self._state
        variant = state["variant"][run_position].astype(np.intp)
        if category in (UpdateCategory.AADIFF, UpdateCategory.WADIFF):
            # Every event flips the variant.
            earlier, last = _earlier(run_position, events)
            variant ^= earlier & 1
            state["variant"][run_position[last]] = (variant ^ events & 1)[last]
            variant = variant[cell_run] ^ (rank & 1 & counted)
        else:
            variant = variant[cell_run]
        if category is UpdateCategory.AADUP:
            # An event's policy draw follows its episode's six draws; a
            # hit steps the MED 20 ↔ 40 (from None, to 20).
            draw = offset[cell_episode] + _EPISODE_DRAWS + step - booted_row
            climbed, hits = running(counted & (
                window[draw] < self.targets.policy_fluctuation_fraction
            ))
            climbs, last = _earlier(run_position, hits)
            start = state["med"][run_position]

            def stepped(steps: np.ndarray, code: np.ndarray) -> np.ndarray:
                return np.where(steps, 2 - (steps + (code == 1)) % 2, code)

            state["med"][run_position[last]] = stepped(
                climbs[last] + hits[last], start[last]
            )
            med = stepped(climbed, stepped(climbs, start)[cell_run])
        else:  # announced without MED
            state["med"][run_position[cell_run]] = 0
            med = 0
        key = (run_position[cell_run] * 2 + variant) * 3 + med
        keys, first, inverse = np.unique(key, True, True)
        order = np.argsort(first)
        ids = np.empty(len(keys), dtype=np.uint32)
        bundle, intern = self._bundle, table.intern_tuple
        ids[order] = [intern(bundle(k)) for k in keys[order].tolist()]
        return ids[inverse]

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

    def state_payload(self) -> dict:
        """Checkpoint the cross-day per-pair state as plain data.

        The campaign's spill chunks store this in their footer so a
        resumed shard can load finished days from disk and *continue
        generating* from the exact state the original run had — the
        generator carries reachability/variant/MED memory across days,
        so skipping a day's RNG is only sound with its end state
        restored.  Columnar and key-sorted, so the payload is canonical
        and compact: one entry per pair a day has walked.
        """
        seen = np.flatnonzero(self._state["seen"])
        pair = self._records[seen]
        asn, net, plen = pair["peer_asn"], pair["net"], pair["plen"]
        # Pairs sort as ((network, length), asn): Prefix is that tuple.
        order = np.lexsort((asn, plen, net))
        state = self._state[seen[order]]
        return {
            "net": net[order].tolist(),
            "plen": plen[order].tolist(),
            "asn": asn[order].tolist(),
            "flags": (
                state["reachable"] | state["ever"] << 1
                | state["variant"] << 2 | (state["med"] > 0) << 3
            ).tolist(),
            "med": [_MEDS[code] for code in state["med"].tolist() if code],
        }

    @staticmethod
    def can_restore(payload: object) -> bool:
        """Whether :meth:`restore_state` loads ``payload``: five int
        lists, one pair per index of the first four with a valid prefix,
        one MED (20 or 40, all a day announces) per pair flagged with
        one.  Checked without a generator, so a resume can refuse a
        chunk while it can still regenerate."""
        if type(payload) is not dict:
            return False
        nets, plens, asns, flags, meds = columns = [
            payload.get(key) for key in ("net", "plen", "asn", "flags", "med")
        ]
        return (
            all(type(c) is list and {*map(type, c)} <= {int} for c in columns)
            and len(nets) == len(plens) == len(asns) == len(flags)
            and sum(f >> 3 & 1 for f in flags) == len(meds)
            and set(meds) <= set(_MEDS)
            and all(
                0 <= plen <= 32 and 0 <= net < 1 << 32
                and not net & ((1 << 32 - plen) - 1)
                for net, plen in zip(nets, plens)
            )
        )

    def restore_state(self, payload: dict) -> None:
        """Replace per-pair state with a :meth:`state_payload`
        checkpoint (the inverse; prior state is discarded)."""
        positions = self._positions(
            (Prefix(net, plen), asn) for net, plen, asn in zip(
                payload["net"], payload["plen"], payload["asn"]
            )
        )
        meds = iter(payload["med"])
        state = self._state = np.zeros(len(self._state), dtype=_STATE_DTYPE)
        state[positions] = [
            (True, f & 1, f & 2, f >> 2 & 1,
             _MEDS.index(next(meds)) if f & 8 else 0)
            for f in payload["flags"]
        ]


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
