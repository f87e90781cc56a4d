"""The scalar trace-generation tier, kept as a reference oracle.

:meth:`TraceGenerator.day_columns` emits every category as array work
over the day's MT19937 stream, read in blocks from a NumPy clone of
the day's ``random.Random``; every draw must keep the role this
module's per-pair loop gives it, position for position (DESIGN.md §15
states the contract).  The loop lives only here — the role
:class:`repro.sim.refengine.ReferenceEngine` plays for the simulator.
:class:`ReferenceTraceGenerator` keeps the production planning and
materializes one ``random.Random`` draw, one linear-scan bin sample and
one record tuple at a time; it never builds a draw stream.  Its pair
state is one object per pair and its announcements
:class:`~repro.bgp.attributes.PathAttributes` bundles interned through
``table.intern`` — none of the production's per-pair arrays or
attribute tuples — and it writes and reads the same checkpoint payload
on its own.  Do NOT optimize this module;
``tests/test_generator_parity.py`` rests on it.
"""

from __future__ import annotations

import math
import random
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bgp.attributes import AsPath, PathAttributes
from ..collector.record import UpdateKind
from ..collector.store import SECONDS_PER_DAY
from ..core.columns import NO_ATTR, RECORD_DTYPE, AttributeTable, RecordColumns
from ..core.taxonomy import UpdateCategory
from ..net.prefix import Prefix
from ..workloads.generator import (
    PLANNED_CATEGORIES,
    DayPlan,
    Pair,
    TraceGenerator,
)
from ..workloads.incidents import BINS_PER_DAY

__all__ = ["ReferenceTraceGenerator", "reference_twin"]

AADIFF, WADIFF, AADUP, WADUP, WWDUP = PLANNED_CATEGORIES


class _PairState:
    """The oracle's mirror of the classifier's per-route state."""

    __slots__ = ("reachable", "variant", "ever_announced", "med")

    def __init__(self) -> None:
        self.reachable = False
        self.variant = 0
        self.ever_announced = False
        self.med: Optional[int] = None


class ReferenceTraceGenerator(TraceGenerator):
    """:class:`TraceGenerator` materialized by the scalar loop."""

    __slots__ = ("_states", "_attr_cache")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._states: Dict[Pair, _PairState] = {}
        self._attr_cache: Dict[
            Tuple[Pair, int, Optional[int]], PathAttributes
        ] = {}

    def day_columns(
        self,
        day: int,
        pair_fraction: float = 0.05,
        plan: Optional[DayPlan] = None,
        categories: Optional[Sequence[UpdateCategory]] = None,
        attrs: Optional[AttributeTable] = None,
    ) -> RecordColumns:
        if not 0.0 < pair_fraction <= 1.0:
            raise ValueError("pair_fraction must be in (0, 1]")
        plan = plan or self.plan_day(day)
        rng = self._day_rng(day, salt=1)
        table = attrs if attrs is not None else AttributeTable()
        rows: List[tuple] = []
        for category in PLANNED_CATEGORIES:
            if categories is not None and category not in categories:
                continue
            for pair, count in plan.participation[category]:
                if pair_fraction < 1.0 and rng.random() > pair_fraction:
                    continue
                self._emit_pair_day(
                    rng, plan, category, pair, count, rows, table
                )
        # Stable: equal timestamps keep emission order.
        rows.sort(key=itemgetter(0))
        return RecordColumns(np.array(rows, dtype=RECORD_DTYPE), table)

    def _state_of(self, pair: Pair) -> _PairState:
        state = self._states.get(pair)
        if state is None:
            state = self._states[pair] = _PairState()
        return state

    def _attrs(
        self, pair: Pair, variant: int, med: Optional[int] = None
    ) -> PathAttributes:
        """The pair's bundle: variant 0 its primary path, variant 1 a
        longer alternate; ``med`` a non-forwarding attribute."""
        key = (pair, variant, med)
        attrs = self._attr_cache.get(key)
        if attrs is None:
            prefix, asn = pair
            origin = 1000 + (hash(pair) % 4000)
            if variant == 0:
                path = AsPath((asn, origin))
            else:
                path = AsPath((asn, 5000 + (hash(pair) % 1000), origin))
            peer = self.population.by_asn[asn]
            attrs = self._attr_cache[key] = PathAttributes(
                as_path=path, next_hop=peer.peer_id, med=med
            )
        return attrs

    def state_payload(self) -> dict:
        """The pair states in the production checkpoint's format."""
        pairs = sorted(self._states)
        states = [self._states[pair] for pair in pairs]
        return {
            "net": [prefix.network for prefix, _ in pairs],
            "plen": [prefix.length for prefix, _ in pairs],
            "asn": [asn for _, asn in pairs],
            "flags": [
                int(state.reachable)
                | int(state.ever_announced) << 1
                | int(state.variant) << 2
                | int(state.med is not None) << 3
                for state in states
            ],
            "med": [state.med for state in states if state.med is not None],
        }

    def restore_state(self, payload: dict) -> None:
        """Replace the pair states with a checkpoint's."""
        self._states = {}
        meds = iter(payload["med"])
        for net, plen, asn, flags in zip(
            payload["net"], payload["plen"], payload["asn"], payload["flags"]
        ):
            state = self._state_of((Prefix(net, plen), asn))
            state.reachable = bool(flags & 1)
            state.ever_announced = bool(flags & 2)
            state.variant = (flags >> 2) & 1
            state.med = next(meds) if flags & 8 else None

    def _sample_bin(self, rng: random.Random, plan: DayPlan) -> Optional[int]:
        """A bin index drawn ∝ bin weight (lost bins excluded): rebuild
        the masked weight list and linearly scan its running sum.  One
        ``rng.random()`` draw."""
        weights = [
            0.0 if i in plan.lost_bins else w
            for i, w in enumerate(plan.bin_weights)
        ]
        total = sum(weights)
        if total <= 0:
            return None
        x = rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if x <= acc:
                return i
        return len(weights) - 1

    def _episode_period(self, rng: random.Random) -> float:
        """An episode's one period (Figure 8's mixture): the 30 s
        timer, the ~60 s CSU cycle, or a log-uniform background."""
        u = rng.random()
        t = self.targets
        if u < t.spacing_30s_mass:
            return rng.uniform(29.5, 30.5)
        if u < t.spacing_30s_mass + t.spacing_60s_mass:
            return rng.uniform(58.0, 62.0)
        return math.exp(rng.uniform(math.log(2.0), math.log(8 * 3600.0)))

    def _emit_pair_day(
        self,
        rng: random.Random,
        plan: DayPlan,
        category: UpdateCategory,
        pair: Pair,
        count: int,
        rows: List[tuple],
        table: AttributeTable,
    ) -> None:
        """Append to ``rows`` the record sequence giving ``pair``
        exactly ``count`` events of ``category`` today (plus the
        uncategorized W/bootstrap records the sequences require)."""
        prefix, asn = pair
        identity = (self.population.by_asn[asn].peer_id, asn,
                    prefix.network, prefix.length)
        state = self._state_of(pair)
        day_start = plan.day * SECONDS_PER_DAY

        def announce(
            t: float, variant: int, med: Optional[int] = None
        ) -> None:
            attr_id = table.intern(self._attrs(pair, variant, med=med))
            rows.append((t, *identity, int(UpdateKind.ANNOUNCE), attr_id))
            state.reachable = True
            state.ever_announced = True
            state.variant = variant
            state.med = med

        def withdraw(t: float) -> None:
            rows.append((t, *identity, int(UpdateKind.WITHDRAW), int(NO_ATTR)))
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
                if category is WADIFF:
                    # First contact bootstraps reachability so the
                    # withdrawal below is PLAIN, not the category.
                    bootstrap = not state.ever_announced
                else:
                    bootstrap = category in (AADIFF, AADUP) and (
                        not state.reachable
                    )
                if bootstrap:
                    announce(t, state.variant)  # uncategorized / WA*
                    t += period
                    if t >= day_end:
                        break
                if state.reachable and category in (WADIFF, WADUP, WWDUP):
                    # PLAIN, one micro-gap ahead.
                    withdraw(t - micro_gap if t - micro_gap > day_start
                             else t)
                if category is WWDUP:
                    withdraw(t)  # repeat withdrawals while unreachable
                elif category is AADUP:
                    med = state.med
                    if rng.random() < self.targets.policy_fluctuation_fraction:
                        # Policy fluctuation: same forwarding tuple,
                        # different MED.
                        med = 20 if med != 20 else 40
                    announce(t, state.variant, med=med)
                elif category in (AADIFF, WADIFF):
                    announce(t, 1 - state.variant)
                else:  # WADUP
                    announce(t, state.variant)
                t += period


def reference_twin(generator: TraceGenerator) -> ReferenceTraceGenerator:
    """A :class:`ReferenceTraceGenerator` with ``generator``'s exact
    configuration and *fresh* pair state — feed both the same day
    sequence and their outputs must be byte-identical."""
    return ReferenceTraceGenerator(
        population=generator.population,
        diurnal=generator.diurnal,
        schedule=generator.schedule,
        targets=generator.targets,
        constants=generator.constants,
        seed=generator.seed,
    )
