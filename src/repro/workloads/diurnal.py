"""The diurnal / weekly / seasonal usage model.

Section 5.1's central finding: routing instability tracks network
usage.  "During the hours of midnight to 6:00am there are significantly
fewer updates... heaviest during North American working hours...
from noon to midnight are the densest hours"; weekends show "vertical
stripes of less instability"; June–early-August evenings are sparser
("summer vacation at most of the educational hosts").

:class:`DiurnalModel` is a deterministic intensity function
``intensity(t) ≥ 0`` (mean ≈ 1 over a week) composed of:

- an hour-of-day profile (trough 0:00–6:00, rise through the morning,
  broad peak noon→midnight),
- a day-of-week factor (weekends depressed),
- a seasonal evening adjustment (summer days flatten the 17:00–24:00
  shoulder),
- a linear growth trend across the campaign ("routing instability
  increased linearly during the seven month period").

Both tiers consume it: the statistical generator scales bin counts by
it, and :class:`~repro.sim.faults.CustomerFlapGenerator` accepts it as
a flap-intensity function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..collector.store import SECONDS_PER_DAY, SECONDS_PER_HOUR

__all__ = ["DiurnalModel", "hour_of_day", "day_of_week"]


def hour_of_day(time: float) -> float:
    """Hours past local midnight (0 ≤ h < 24) at simulated ``time``.

    The simulation epoch is calibrated to midnight EST — the paper's
    plots use EST ("the bottom of the graph represents midnight EST").
    """
    return (time % SECONDS_PER_DAY) / SECONDS_PER_HOUR


def day_of_week(time: float) -> int:
    """0=Monday ... 6=Sunday.  The epoch falls on a Monday."""
    return int(time // SECONDS_PER_DAY) % 7


#: Hourly base profile, midnight→23:00: quiet overnight, climb through
#: business hours, dense noon→midnight (Figure 3's visual structure).
HOURLY_PROFILE: Sequence[float] = (
    0.45, 0.38, 0.33, 0.30, 0.30, 0.34,   # 00-05  overnight trough
    0.45, 0.62, 0.85, 1.10, 1.30, 1.42,   # 06-11  morning climb
    1.52, 1.58, 1.60, 1.58, 1.52, 1.45,   # 12-17  afternoon plateau
    1.38, 1.32, 1.25, 1.15, 0.95, 0.70,   # 18-23  evening shoulder
)

#: Monday..Sunday multipliers: weekdays full, weekend depressed.
WEEKDAY_PROFILE: Sequence[float] = (1.0, 1.02, 1.03, 1.02, 1.0, 0.55, 0.50)


@dataclass(slots=True)
class DiurnalModel:
    """Deterministic usage-intensity function over the campaign.

    Parameters
    ----------
    trend_per_day:
        Fractional linear growth per day (Figure 3's detrended slope;
        345→770 over ~190 days ≈ 0.0042/day relative to the mean).
    summer_start_day, summer_end_day:
        Campaign days with the flattened evening shoulder (June–early
        August for a campaign starting March 1).
    summer_evening_factor:
        Multiplier applied to the 17:00–24:00 shoulder in summer.
    """

    trend_per_day: float = 0.0042
    summer_start_day: int = 92     # ~June 1 for a March 1 start
    summer_end_day: int = 160      # ~early August
    summer_evening_factor: float = 0.72

    def intensity(self, time: float) -> float:
        """The usage intensity at simulated ``time`` (mean ≈ 1 early
        in the campaign, growing with the trend)."""
        hour = hour_of_day(time)
        day = int(time // SECONDS_PER_DAY)
        base = self._hour_factor(hour)
        if (
            self.summer_start_day <= day <= self.summer_end_day
            and hour >= 17.0
        ):
            base *= self.summer_evening_factor
        base *= WEEKDAY_PROFILE[day_of_week(time)]
        base *= 1.0 + self.trend_per_day * day
        return base

    def _hour_factor(self, hour: float) -> float:
        """Piecewise-linear interpolation of the hourly profile."""
        lower = int(hour) % 24
        upper = (lower + 1) % 24
        frac = hour - int(hour)
        return (
            HOURLY_PROFILE[lower] * (1.0 - frac)
            + HOURLY_PROFILE[upper] * frac
        )

    # -- conveniences used by analyses/tests ---------------------------------

    def bin_weights(self, day: int, bins_per_day: int = 144) -> List[float]:
        """Relative intensity of each ten-minute bin of ``day``."""
        start = day * SECONDS_PER_DAY
        width = SECONDS_PER_DAY / bins_per_day
        return [
            self.intensity(start + (i + 0.5) * width)
            for i in range(bins_per_day)
        ]
