"""Route-flap damping (Villamizar/Chandra/Govindan draft → RFC 2439).

The paper discusses damping as the deployed countermeasure to
instability: routers "hold down, or refuse to believe, updates about
routes that exceed certain parameters of instability" — and warns that
damping "can introduce artificial connectivity problems, as legitimate
announcements about a new network may be delayed due to earlier
dampened instability."

This module implements the standard exponential-decay penalty model:

- each flap (withdrawal, or attribute change) adds a penalty;
- the penalty decays exponentially with a configured half-life;
- when the penalty crosses ``suppress_threshold`` the route is
  suppressed (updates for it are withheld);
- it is reused once the penalty decays below ``reuse_threshold``;
- the penalty is capped so a route cannot be suppressed for more than
  ``max_suppress_time``.

The damping ablation benchmark uses this to show the trade-off the
paper describes: update-volume reduction vs delayed legitimate
reachability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..net.prefix import Prefix

__all__ = ["DampingParameters", "DampingState", "RouteFlapDamper"]


@dataclass(frozen=True)
class DampingParameters:
    """The knobs of the RFC 2439 algorithm (defaults are the classic
    Cisco values: half-life 15 min, suppress at 2000, reuse at 750)."""

    withdrawal_penalty: float = 1000.0
    attribute_change_penalty: float = 500.0
    readvertisement_penalty: float = 0.0
    suppress_threshold: float = 2000.0
    reuse_threshold: float = 750.0
    half_life: float = 15 * 60.0
    max_suppress_time: float = 60 * 60.0

    def __post_init__(self) -> None:
        if self.reuse_threshold >= self.suppress_threshold:
            raise ValueError("reuse threshold must be below suppress threshold")
        if self.half_life <= 0:
            raise ValueError("half-life must be positive")

    @property
    def decay_rate(self) -> float:
        """The continuous decay constant λ with penalty ∝ exp(-λt)."""
        return math.log(2.0) / self.half_life

    @property
    def penalty_ceiling(self) -> float:
        """The maximum penalty: the value that takes exactly
        ``max_suppress_time`` to decay to the reuse threshold."""
        return self.reuse_threshold * math.exp(
            self.decay_rate * self.max_suppress_time
        )


@dataclass
class DampingState:
    """Per-(prefix, peer) damping bookkeeping."""

    penalty: float = 0.0
    last_update: float = 0.0
    suppressed: bool = False
    flap_count: int = 0

    def decayed_penalty(self, now: float, rate: float) -> float:
        """The penalty decayed from ``last_update`` to ``now``."""
        dt = max(0.0, now - self.last_update)
        return self.penalty * math.exp(-rate * dt)


class RouteFlapDamper:
    """Tracks per-route flap penalties and suppression decisions.

    Usage: on every received flap event call :meth:`on_withdrawal`,
    :meth:`on_attribute_change`, or :meth:`on_readvertisement` with the
    current time; each returns True when the route is (still)
    suppressed, i.e. the update should be withheld.  Call
    :meth:`reusable` periodically to learn which suppressed routes have
    decayed below the reuse threshold.
    """

    def __init__(self, params: Optional[DampingParameters] = None) -> None:
        self.params = params or DampingParameters()
        self._states: Dict[Tuple[Prefix, int], DampingState] = {}
        self.suppressed_updates = 0
        self.total_flaps = 0

    # -- internals ---------------------------------------------------------

    def _state(self, prefix: Prefix, peer: int) -> DampingState:
        return self._states.setdefault((prefix, peer), DampingState())

    def _apply_penalty(
        self, prefix: Prefix, peer: int, now: float, penalty: float
    ) -> bool:
        params = self.params
        state = self._state(prefix, peer)
        decayed = state.decayed_penalty(now, params.decay_rate)
        state.penalty = min(decayed + penalty, params.penalty_ceiling)
        state.last_update = now
        if penalty > 0:
            state.flap_count += 1
            self.total_flaps += 1
        if state.suppressed:
            if state.penalty < params.reuse_threshold:
                state.suppressed = False
        elif state.penalty >= params.suppress_threshold:
            state.suppressed = True
        if state.suppressed:
            self.suppressed_updates += 1
        return state.suppressed

    # -- event entry points ---------------------------------------------------

    def on_withdrawal(self, prefix: Prefix, peer: int, now: float) -> bool:
        """Record a withdrawal flap; True if the route is suppressed."""
        return self._apply_penalty(
            prefix, peer, now, self.params.withdrawal_penalty
        )

    def on_attribute_change(self, prefix: Prefix, peer: int, now: float) -> bool:
        """Record an attribute-change flap (implicit withdrawal)."""
        return self._apply_penalty(
            prefix, peer, now, self.params.attribute_change_penalty
        )

    def on_readvertisement(self, prefix: Prefix, peer: int, now: float) -> bool:
        """Record a re-announcement; True if still suppressed.

        This is the case the paper warns about: a legitimate
        re-announcement arriving while the penalty is above the reuse
        threshold stays invisible to the rest of the network.
        """
        return self._apply_penalty(
            prefix, peer, now, self.params.readvertisement_penalty
        )

    # -- queries ---------------------------------------------------------------

    def is_suppressed(self, prefix: Prefix, peer: int, now: float) -> bool:
        """Non-mutating check with decay applied."""
        state = self._states.get((prefix, peer))
        if state is None or not state.suppressed:
            return False
        return (
            state.decayed_penalty(now, self.params.decay_rate)
            >= self.params.reuse_threshold
        )

    def penalty(self, prefix: Prefix, peer: int, now: float) -> float:
        """The current (decayed) penalty for a route."""
        state = self._states.get((prefix, peer))
        if state is None:
            return 0.0
        return state.decayed_penalty(now, self.params.decay_rate)

    def reusable(self, now: float) -> List[Tuple[Prefix, int]]:
        """Suppressed routes whose penalty has decayed below reuse;
        marks them unsuppressed and returns them."""
        released: List[Tuple[Prefix, int]] = []
        rate = self.params.decay_rate
        for key, state in self._states.items():
            if state.suppressed and (
                state.decayed_penalty(now, rate) < self.params.reuse_threshold
            ):
                state.suppressed = False
                state.penalty = state.decayed_penalty(now, rate)
                state.last_update = now
                released.append(key)
        return released

    def time_until_reuse(self, prefix: Prefix, peer: int, now: float) -> float:
        """Seconds until a suppressed route decays to the reuse
        threshold (0.0 if not suppressed) — the 'artificial
        connectivity delay' metric of the damping ablation."""
        state = self._states.get((prefix, peer))
        if state is None or not state.suppressed:
            return 0.0
        current = state.decayed_penalty(now, self.params.decay_rate)
        if current < self.params.reuse_threshold:
            return 0.0
        return (
            math.log(current / self.params.reuse_threshold)
            / self.params.decay_rate
        )
