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
   classifier does).  The scalar per-pair loop
   (:meth:`TraceGenerator._emit_pair_day`) defines the stream.  WWDup
   — the flood, ~95% of a day — does not run it: the day's MT19937
   stream is continued in a NumPy clone and read in bounded blocks
   (:class:`_DrawStream`), a pair's episodes are six-draw strides of
   it, and bursts, bins, periods and timestamps are array expressions
   over each block (:meth:`TraceGenerator._emit_wwdup_columns`).
   Every draw keeps the role the scalar loop gives it, so the output
   is byte-identical to :mod:`repro.verify.refgen`, which still runs
   the loop.
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
# The flood is emitted after every scalar category: its tier takes over
# the day's draw stream for good, and its array events follow every
# scalar event in emission order.
assert PLANNED_CATEGORIES[-1] is UpdateCategory.WWDUP


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

    A record's identity (``peer_id, asn, net, plen``) is stored once
    per *block* — one :meth:`block` per pair and category — and every
    event is ``(time, block, kind, attr_id)``: the scalar categories
    append to Python lists, the WWDup tier hands over whole
    ``(times, blocks)`` arrays via :meth:`withdraw_block`.  WWDup is
    the *last* planned category, so every scalar event precedes every
    array event in emission order and ``finish``'s stable time order
    resolves equal timestamps exactly as the all-scalar stream did.
    """

    __slots__ = ("table", "peer_ids", "asns", "nets", "plens",
                 "times", "blocks", "kinds", "attr_ids", "floods")

    def __init__(self, table) -> None:
        self.table = table
        self.peer_ids: List[int] = []
        self.asns: List[int] = []
        self.nets: List[int] = []
        self.plens: List[int] = []
        self.times: List[float] = []
        self.blocks: List[int] = []
        self.kinds: List[int] = []
        self.attr_ids: List[int] = []
        self.floods: List[Tuple[np.ndarray, np.ndarray]] = []

    def block(self, peer_id: int, asn: int, prefix: Prefix) -> int:
        """Register one record identity; events refer to it by the
        returned index."""
        self.peer_ids.append(peer_id)
        self.asns.append(asn)
        self.nets.append(prefix.network)
        self.plens.append(prefix.length)
        return len(self.peer_ids) - 1

    def announce(self, time, block, attrs) -> None:
        self._push(time, block, int(UpdateKind.ANNOUNCE),
                   self.table.intern(attrs))

    def withdraw(self, time, block) -> None:
        self._push(time, block, int(UpdateKind.WITHDRAW), int(NO_ATTR))

    def _push(self, time, block, kind, attr_id) -> None:
        self.times.append(time)
        self.blocks.append(block)
        self.kinds.append(kind)
        self.attr_ids.append(attr_id)

    def withdraw_block(self, times: np.ndarray, blocks: np.ndarray) -> None:
        """Append a batch of withdrawals already in emission order."""
        self.floods.append((times, blocks))

    def finish(self) -> RecordColumns:
        """The day's batch: events in stable time order, each identity
        column one gather through the event's block."""
        scalar = len(self.times)
        time = np.concatenate(
            [np.asarray(self.times, dtype=np.float64)]
            + [times for times, _ in self.floods]
        )
        block = np.concatenate(
            [np.asarray(self.blocks, dtype=np.intp)]
            + [blocks for _, blocks in self.floods]
        )
        kind = np.full(len(time), int(UpdateKind.WITHDRAW), dtype=np.uint8)
        kind[:scalar] = self.kinds
        attr_id = np.full(len(time), NO_ATTR, dtype=np.uint32)
        attr_id[:scalar] = self.attr_ids
        # Stable: equal timestamps keep emission order.
        order = stable_argsort(time)
        block = block[order]
        data = np.empty(len(time), dtype=RECORD_DTYPE)
        data["time"] = time[order]
        data["peer_id"] = np.asarray(self.peer_ids, dtype=np.uint32)[block]
        data["peer_asn"] = np.asarray(self.asns, dtype=np.uint32)[block]
        data["net"] = np.asarray(self.nets, dtype=np.uint32)[block]
        data["plen"] = np.asarray(self.plens, dtype=np.uint8)[block]
        data["kind"] = kind[order]
        data["attr_id"] = attr_id[order]
        return RecordColumns(data, self.table)


#: Draws one WWDup episode takes from the day's stream, in
#: :meth:`TraceGenerator._emit_pair_day`'s order: burst length, bin,
#: in-bin offset, period selector, period, micro-gap.
_EPISODE_DRAWS = 6

#: Doubles drawn from the stream per refill.  This, not the day's
#: size, bounds what the WWDup tier holds at once: one window of draws
#: and the episodes planned from it.
_STREAM_BLOCK = 1 << 17

#: ``log(1 - p)`` of the episode burst length's geometric law, p = 1/3.
_BURST_LOG = math.log(1.0 - 1.0 / 3.0)


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
    """The day rng's MT19937 stream from the WWDup hand-over onwards,
    drawn a block at a time.

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
        """Extend the unconsumed tail of the window by one block."""
        self.window = np.concatenate(
            (self.window[self.at:], self._source.random_sample(_STREAM_BLOCK))
        )
        self._start_window()

    def lane(self, lane: int) -> np.ndarray:
        """Running sum of the burst lengths drawn at
        ``window[lane::6]``.

        Consecutive episodes of a pair sit six draws apart, so they
        share a lane and a pair's event budget is one search in its
        running sum.  A lane is transformed on first use: subsampling
        draws shift the lane, and a day at ``pair_fraction = 1`` only
        ever asks for lane 0.
        """
        sums = self._sums[lane]
        if sums is None:
            lengths = _burst_lengths(self.window[lane::_EPISODE_DRAWS])
            self.lengths[lane::_EPISODE_DRAWS] = lengths
            sums = self._sums[lane] = np.cumsum(lengths, dtype=np.int64)
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
        days.  ``categories=()`` is an empty day."""
        if not 0.0 < pair_fraction <= 1.0:
            raise ValueError("pair_fraction must be in (0, 1]")
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

        Every category but the last runs the scalar per-pair loop on
        the day's ``rng``.  WWDup — the flood category, ~95% of a full
        day's records — comes last and is handed the *stream*: a
        :class:`_DrawStream` continuing ``rng``'s MT19937 sequence
        position for position, so the split is invisible in the output
        and nothing can draw from ``rng`` behind it.
        ``vectorize=False`` keeps WWDup on the scalar loop too (the
        :mod:`repro.verify.refgen` oracle the parity tests diff
        against).
        """
        plan = plan or self.plan_day(day)
        rng = self._day_rng(day, salt=1)
        wanted = (
            PLANNED_CATEGORIES if categories is None else tuple(categories)
        )
        scalar = [c for c in PLANNED_CATEGORIES if c in wanted]
        flood = vectorize and UpdateCategory.WWDUP in scalar
        if flood:
            scalar.pop()  # WWDup, last: emitted below, from the stream
        for category in scalar:
            for pair, count in plan.participation[category]:
                if pair_fraction < 1.0 and rng.random() > pair_fraction:
                    continue
                self._emit_pair_day(rng, plan, category, pair, count, sink)
        if flood:
            self._emit_wwdup_columns(
                _DrawStream(rng), plan,
                plan.participation[UpdateCategory.WWDUP],
                pair_fraction, sink,
            )

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
        block = sink.block(peer.peer_id, asn, prefix)

        def announce(
            t: float, variant: int, med: Optional[int] = None
        ) -> None:
            sink.announce(t, block, self._attrs(pair, variant, med=med))
            state.reachable = True
            state.ever_announced = True
            state.variant = variant
            state.med = med

        def withdraw(t: float) -> None:
            sink.withdraw(t, block)
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
        stream: _DrawStream,
        plan: DayPlan,
        allocation: List[Tuple[Pair, int]],
        pair_fraction: float,
        sink: "_ColumnSink",
    ) -> None:
        """WWDup as whole-array work over the day's draw stream.

        :meth:`_emit_pair_day` spends six draws per episode (see
        :data:`_EPISODE_DRAWS`) plus one per considered pair when
        subsampling, so every draw's role follows from where its pair
        starts.  The walk below touches each *pair* once: it finds in
        the lane's running burst lengths where the pair's ``count`` is
        used up, clips the last burst, and records the pair's episodes
        in the current stream window as one *run*.  When the window
        runs out — and after the last pair — :meth:`_expand_runs` turns
        its runs into timestamps in one pass.
        """
        cum, total = plan.materialization_weights()
        subsample = pair_fraction < 1.0
        day_start = plan.day * SECONDS_PER_DAY
        day_end = day_start + SECONDS_PER_DAY
        bin_width = SECONDS_PER_DAY / BINS_PER_DAY
        last_bin = len(cum) - 1
        by_asn = self.population.by_asn
        # The runs planned from the current window, in emission order:
        # window offset of the first draw, episodes, clipped length of
        # the last burst (0 = unclipped), sink block; and the
        # (run, episode) places of the lead withdrawals.
        runs: Tuple[list, ...] = ([], [], [], [], [])
        starts, counts, clips, blocks, leads = runs

        def refill() -> None:
            if starts:
                self._expand_runs(stream, plan, runs, sink)
                for column in runs:
                    column.clear()
            stream.more()

        def draw() -> float:
            if stream.at == len(stream.window):
                refill()
            stream.at += 1
            return stream.window[stream.at - 1]

        for pair, count in allocation:
            if subsample and draw() > pair_fraction:
                continue
            state = self._state(pair)
            if count <= 0:
                continue
            if total <= 0:
                # Whole day lost: the scalar loop draws one burst
                # length, finds no bin to put it in and gives up on
                # the pair.
                draw()
                continue
            prefix, asn = pair
            block = sink.block(by_asn[asn].peer_id, asn, prefix)
            remaining = count
            while remaining > 0:
                at = stream.at
                whole = (len(stream.window) - at) // _EPISODE_DRAWS
                if not whole:
                    refill()
                    continue
                sums = stream.lane(at % _EPISODE_DRAWS)
                first = at // _EPISODE_DRAWS
                before = int(sums[first - 1]) if first else 0
                last = int(sums.searchsorted(before + remaining))
                if last < first + whole:
                    # The budget runs out in this window: the last
                    # burst is cut to what is left of it.
                    episodes = last - first + 1
                    clip = remaining + before - (
                        int(sums[last - 1]) if last else 0
                    )
                    remaining = 0
                else:
                    episodes = whole
                    clip = 0
                    remaining -= int(sums[first + whole - 1]) - before
                if state.reachable:
                    # The pair entered the day reachable: a PLAIN
                    # withdrawal leads its first episode that starts
                    # before midnight (the first, unless an in-bin
                    # offset rounded up to the day's last instant).
                    window = stream.window
                    for episode in range(episodes):
                        bin_index = min(
                            bisect_left(cum, window[at + 1] * total),
                            last_bin,
                        )
                        t0 = day_start + (
                            bin_index + window[at + 2]
                        ) * bin_width
                        if t0 < day_end:
                            leads.append((len(starts), episode))
                            state.reachable = False
                            break
                        at += _EPISODE_DRAWS
                starts.append(stream.at)
                counts.append(episodes)
                clips.append(clip)
                blocks.append(block)
                stream.at += episodes * _EPISODE_DRAWS
        if starts:
            self._expand_runs(stream, plan, runs, sink)

    def _expand_runs(
        self,
        stream: _DrawStream,
        plan: DayPlan,
        runs: Tuple[list, ...],
        sink: "_ColumnSink",
    ) -> None:
        """Turn the episode ``runs`` planned from ``stream.window``
        (see :meth:`_emit_wwdup_columns`) into withdrawal events, as
        array expressions in the scalar loop's operand order.

        Only ``exp`` stays libm: the background period reaches a
        timestamp, and ``np.exp`` differs from ``math.exp`` in the
        last bit often enough to show.
        """
        starts, counts, clips, blocks, leads = runs
        window = stream.window
        cum, total = plan.materialization_weights()
        day_start = plan.day * SECONDS_PER_DAY
        day_end = day_start + SECONDS_PER_DAY
        bin_width = SECONDS_PER_DAY / BINS_PER_DAY
        targets = self.targets
        mass_30 = targets.spacing_30s_mass
        mass_60 = mass_30 + targets.spacing_60s_mass
        log_lo = math.log(2.0)
        log_span = math.log(8 * 3600.0) - log_lo

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
        bins = np.minimum(
            np.searchsorted(cum, window[offset + 1] * total), len(cum) - 1
        )
        t0 = day_start + (bins + window[offset + 2]) * bin_width
        # The Figure 8 mixture: 30 s timer, 60 s line, broad background.
        selector = window[offset + 3]
        spread = window[offset + 4]
        period = np.where(
            selector < mass_30, 29.5 + 1.0 * spread, 58.0 + 4.0 * spread
        )
        background = np.flatnonzero(selector >= mass_60)
        period[background] = [
            math.exp(x)
            for x in (log_lo + log_span * spread[background]).tolist()
        ]
        block = np.repeat(np.asarray(blocks, dtype=np.intp), per_run)
        if leads:
            # Lead withdrawals: one-event rows ahead of their episode,
            # at the micro-gap offset clamped to the day's start.
            runs, episodes = np.asarray(leads, dtype=np.intp).T
            led = firsts[runs] + episodes
            gap = np.minimum(
                0.5 + 3.5 * window[offset[led] + 5], period[led] / 2.0
            )
            early = t0[led] - gap
            lead_time = np.where(early > day_start, early, t0[led])
            length = np.insert(length, led, 1)
            period = np.insert(period, led, 0.0)
            block = np.insert(block, led, block[led])
            t0 = np.insert(t0, led, lead_time)
        times = _episode_times(t0, period, length)
        # Days are hard boundaries: an episode's tail past midnight is
        # dropped (times only grow along a row).
        kept = times < day_end
        sink.withdraw_block(times[kept], np.repeat(block, length)[kept])

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

    @staticmethod
    def can_restore(payload: object) -> bool:
        """Whether :meth:`restore_state` loads ``payload``: five int
        lists, one pair per index of the first four with a valid prefix,
        one MED per pair flagged with one.  Checked without a generator,
        so a resume can refuse a chunk while it can still regenerate."""
        if type(payload) is not dict:
            return False
        nets, plens, asns, flags, meds = columns = [
            payload.get(key) for key in ("net", "plen", "asn", "flags", "med")
        ]
        return (
            all(type(c) is list and {*map(type, c)} <= {int} for c in columns)
            and len(nets) == len(plens) == len(asns) == len(flags)
            and sum(f >> 3 & 1 for f in flags) == len(meds)
            and all(
                0 <= plen <= 32 and 0 <= net < 1 << 32
                and not net & ((1 << 32 - plen) - 1)
                for net, plen in zip(nets, plens)
            )
        )

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
