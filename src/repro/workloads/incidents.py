"""Incident scheduling: the discrete events that punctuate the campaign.

Figure 3's striking structures are incidents, not background process:
the bold vertical lines of "a major ISP's infrastructure upgrade" at
the end of May, the horizontal 10am maintenance line, Saturday's
"temporally localized instability" spikes, and the white squares of
collection outages (including the day the collector died after 30M
updates).  :class:`IncidentSchedule` composes these into per-bin
multipliers and lost-bin sets the generator applies on top of the
diurnal model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

__all__ = ["Incident", "IncidentSchedule", "default_campaign_schedule"]

BINS_PER_DAY = 144  # ten-minute aggregation, the paper's Figure 3 unit


@dataclass(frozen=True, slots=True)
class Incident:
    """One scheduled disturbance.

    ``first_day``..``last_day`` inclusive; within those days the bins in
    ``[start_bin, end_bin)`` have their update counts multiplied by
    ``magnitude``.  A full-day incident uses (0, 144).
    """

    name: str
    first_day: int
    last_day: int
    magnitude: float
    start_bin: int = 0
    end_bin: int = BINS_PER_DAY

    def covers(self, day: int, bin_index: int) -> bool:
        return (
            self.first_day <= day <= self.last_day
            and self.start_bin <= bin_index < self.end_bin
        )


class IncidentSchedule:
    """The campaign's incidents plus collection outages.

    ``multiplier(day, bin)`` is the product of all covering incidents;
    ``lost_bins(day)`` the set of ten-minute bins with no data.
    """

    __slots__ = ("incidents", "_lost")

    def __init__(
        self,
        incidents: Iterable[Incident] = (),
        lost: Optional[Dict[int, Set[int]]] = None,
    ) -> None:
        self.incidents: List[Incident] = list(incidents)
        self._lost: Dict[int, Set[int]] = dict(lost or {})

    def add(self, incident: Incident) -> "IncidentSchedule":
        self.incidents.append(incident)
        return self

    def mark_lost_day(self, day: int) -> "IncidentSchedule":
        self._lost[day] = set(range(BINS_PER_DAY))
        return self

    def mark_lost_bins(self, day: int, bins: Iterable[int]) -> "IncidentSchedule":
        self._lost.setdefault(day, set()).update(bins)
        return self

    def multiplier(self, day: int, bin_index: int) -> float:
        factor = 1.0
        for incident in self.incidents:
            if incident.covers(day, bin_index):
                factor *= incident.magnitude
        return factor

    def lost_bins(self, day: int) -> Set[int]:
        return set(self._lost.get(day, ()))

    def coverage(self, day: int) -> float:
        return 1.0 - len(self._lost.get(day, ())) / BINS_PER_DAY


def default_campaign_schedule(
    n_days: int = 214,
    seed: int = 0,
    upgrade_day: int = 88,
    maintenance_bin: int = 60,
) -> IncidentSchedule:
    """The canonical seven-month (March–September 1996 analogue)
    schedule reproduced from Figure 3's visible structure.

    - Days are counted from March 1 (day 0); the campaign's 214 days
      reach the end of September.
    - The major ISP infrastructure upgrade: bold full-day vertical
      lines at the end of May / beginning of June (default day 88 ≈
      May 28), magnitude ~8× for four days.
    - A daily 10:00am maintenance window (bin 60, 10:00–10:10) with a
      consistent spike.
    - Occasional Saturday spikes ("Saturdays often have high amounts of
      temporally localized instability").
    - Random pathological incidents from small providers (~2 per
      month, a few hours each, 10×).
    - Collection outages: scattered lost bins plus a handful of lost
      days (the paper's Figure 9 requires ≥80% coverage filtering).
    """
    rng = random.Random(seed)
    schedule = IncidentSchedule()
    # The late-May upgrade.
    schedule.add(
        Incident("isp-infrastructure-upgrade", upgrade_day, upgrade_day + 3, 8.0)
    )
    # Daily 10am maintenance line.
    schedule.add(
        Incident(
            "maintenance-window",
            0,
            n_days - 1,
            3.5,
            start_bin=maintenance_bin,
            end_bin=maintenance_bin + 2,
        )
    )
    # Saturday spikes: day_of_week == 5 given the Monday epoch.
    for day in range(n_days):
        if day % 7 == 5 and rng.random() < 0.5:
            start = rng.randrange(48, 120)
            schedule.add(
                Incident(
                    f"saturday-spike-{day}",
                    day,
                    day,
                    6.0,
                    start_bin=start,
                    end_bin=start + rng.randrange(2, 6),
                )
            )
    # Small-provider pathological incidents.
    n_incidents = max(1, n_days // 15)
    for i in range(n_incidents):
        day = rng.randrange(n_days)
        start = rng.randrange(0, 120)
        schedule.add(
            Incident(
                f"pathological-incident-{i}",
                day,
                day,
                10.0,
                start_bin=start,
                end_bin=start + rng.randrange(6, 24),
            )
        )
    # Collection outages: a few whole lost days and scattered bins.
    for _ in range(max(1, n_days // 40)):
        schedule.mark_lost_day(rng.randrange(n_days))
    for _ in range(n_days // 3):
        day = rng.randrange(n_days)
        start = rng.randrange(BINS_PER_DAY - 12)
        schedule.mark_lost_bins(day, range(start, start + rng.randrange(2, 12)))
    return schedule
