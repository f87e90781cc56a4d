"""The simulation calendar.

The paper's fine-grained figures are all *per-day* statistics drawn
over a month (one CDF line per day in Figure 7, one scatter point per
peer per day in Figure 6, one box per bin over days in Figure 8).
Day *n* spans ``[n * SECONDS_PER_DAY, (n+1) * SECONDS_PER_DAY)`` from
the epoch.
"""

from __future__ import annotations

__all__ = [
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_WEEK",
]

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY

