"""The multi-homing growth model (Figure 10).

Figure 10 plots the number of prefixes advertised with multiple paths
in Mae-East's routing tables, April–December 1996: roughly linear
growth ("the rate of increase in multi-homing is at best linear"),
spikes at the end of May from "a major ISP's infrastructure upgrade",
and a gap where data was lost.  More than 25 percent of prefixes were
multi-homed.

:class:`MultihomingGrowthModel` generates that daily series from the
mechanism the paper describes: a growing population of multi-homed
customer prefixes (new multi-homed sites appear at a steady rate as
end-sites buy redundant connectivity), an incident that transiently
multiplies visible paths, and collection outages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["MultihomingGrowthModel", "MultihomingSeries"]


@dataclass
class MultihomingSeries:
    """The daily multi-homed-prefix counts plus bookkeeping."""

    days: List[int]
    counts: List[Optional[int]]   #: None = lost data (the gap)

    def observed(self) -> List[Tuple[int, int]]:
        """(day, count) pairs excluding lost days."""
        return [
            (day, count)
            for day, count in zip(self.days, self.counts)
            if count is not None
        ]

    def growth_per_day(self) -> float:
        """Least-squares linear growth rate over observed days."""
        points = self.observed()
        if len(points) < 2:
            return 0.0
        n = len(points)
        sx = sum(d for d, _ in points)
        sy = sum(c for _, c in points)
        sxx = sum(d * d for d, _ in points)
        sxy = sum(d * c for d, c in points)
        denominator = n * sxx - sx * sx
        if denominator == 0:
            return 0.0
        return (n * sxy - sx * sy) / denominator


class MultihomingGrowthModel:
    """Daily multi-homed prefix counts over a measurement campaign.

    Parameters
    ----------
    initial_count:
        Multi-homed prefixes on day 0 (paper's April level ~9-10k).
    daily_growth:
        New multi-homed prefixes per day (linear trend).
    noise:
        Day-to-day multiplicative measurement noise.
    upgrade_day, upgrade_duration, upgrade_magnitude:
        The late-May ISP infrastructure upgrade: for ``duration`` days
        the visible path count spikes by ``magnitude``×.
    gap:
        ``(first_day, last_day)`` of lost data (the curve's hole).
    """

    def __init__(
        self,
        initial_count: int = 9000,
        daily_growth: float = 55.0,
        noise: float = 0.02,
        upgrade_day: int = 55,
        upgrade_duration: int = 4,
        upgrade_magnitude: float = 2.6,
        gap: Tuple[int, int] = (150, 165),
        seed: int = 0,
    ) -> None:
        self.initial_count = initial_count
        self.daily_growth = daily_growth
        self.noise = noise
        self.upgrade_day = upgrade_day
        self.upgrade_duration = upgrade_duration
        self.upgrade_magnitude = upgrade_magnitude
        self.gap = gap
        self.rng = random.Random(seed)

    def count_on(self, day: int) -> Optional[int]:
        """The multi-homed prefix count measured on ``day`` (None in
        the data gap)."""
        if self.gap[0] <= day <= self.gap[1]:
            return None
        base = self.initial_count + self.daily_growth * day
        if (
            self.upgrade_day
            <= day
            < self.upgrade_day + self.upgrade_duration
        ):
            # The upgrade transiently breaks aggregates apart and leaks
            # backup paths: visible multi-homed routes spike.
            base *= self.upgrade_magnitude
        jitter = self.rng.uniform(1.0 - self.noise, 1.0 + self.noise)
        return int(round(base * jitter))

    def series(self, n_days: int = 270) -> MultihomingSeries:
        """Generate the Figure 10 series (April→December ≈ 270 days)."""
        days = list(range(n_days))
        counts = [self.count_on(day) for day in days]
        return MultihomingSeries(days=days, counts=counts)
