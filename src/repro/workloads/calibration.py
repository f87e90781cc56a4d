"""Calibration constants: the numbers the paper reports.

Every magnitude the statistical generator targets and every expectation
the benchmark harness checks against lives here, with the paper section
it comes from.  These are the "paper column" of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["PaperConstants", "PAPER"]


@dataclass(frozen=True, slots=True)
class PaperConstants:
    """Published magnitudes from Labovitz/Malan/Jahanian (1997)."""

    # -- the routing system (§4, citing the IPMA project) ------------------
    #: "default-free Internet routing tables currently contain only
    #: about 42,000 prefixes"
    total_prefixes: int = 42000
    #: "1500 unique ASPATHs interconnecting 1300 different autonomous
    #: systems"
    unique_as_paths: int = 1500
    total_ases: int = 1300
    #: "routing tables are dominated by six to eight ISPs"
    dominant_isps: Tuple[int, int] = (6, 8)

    # -- update volumes (§4) ----------------------------------------------------
    #: "between three and six million routing prefix updates each day"
    daily_updates: Tuple[int, int] = (3_000_000, 6_000_000)
    #: "125 updates per network on the Internet every day"
    updates_per_network_per_day: float = 125.0
    #: "bursts of updates at rates exceeding 100 prefix announcements a
    #: second"
    burst_rate_per_second: float = 100.0
    #: "the total number of updates exchanged at the Internet core has
    #: exceeded 30 million per day" (once; collection then failed)
    record_day_updates: int = 30_000_000
    #: "between 500,000 to 6 million pathological withdrawals per day
    #: ... at the Mae-East exchange point"
    daily_wwdups: Tuple[int, int] = (500_000, 6_000_000)
    #: "the majority (99 percent) of routing information is
    #: pathological"
    pathological_fraction: float = 0.99

    # -- Table 1 (February 1, 1997 at AADS) -----------------------------------
    #: ISP-I: "announced 259 prefixes, but transmitted over 2.4 million
    #: withdrawals for just 14,112 different prefixes"
    table1_extreme: Tuple[int, int, int] = (259, 2_479_023, 14_112)
    #: The stateless→stateful software comparison: "2 million
    #: withdrawals through their stateless BGP routers at AADS, the
    #: service provider advertised only 1905 withdrawals through their
    #: routers with the updated, stateful software at Mae-East."
    stateless_withdrawals: int = 2_000_000
    stateful_withdrawals: int = 1905

    # -- temporal structure (§5) ---------------------------------------------
    #: Figure 3 threshold: "raw update rate from 345 updates per 10
    #: minute aggregate in March to 770 updates in September"
    density_threshold_march: int = 345
    density_threshold_september: int = 770
    #: Figure 5: significant frequencies at 7 days and 24 hours.
    spectral_periods_hours: Tuple[float, float] = (24.0, 168.0)
    #: Figure 8: "the predominant frequencies ... captured by the
    #: thirty second and one minute bins ... account for half of the
    #: measured statistics"
    timer_bins_mass: float = 0.5
    timer_periods_seconds: Tuple[float, float] = (30.0, 60.0)
    #: "the persistence of most pathological BGP behaviors is under
    #: five minutes"
    pathology_persistence_seconds: float = 300.0

    # -- route stability (§6, Figure 9) ----------------------------------------
    #: "most (80 percent) of Internet routes exhibit a relatively high
    #: level of stability"
    stable_route_fraction: float = 0.8
    #: "between 3 and 10 percent of routes exhibit one or more WADiff
    #: per day"
    daily_wadiff_fraction: Tuple[float, float] = (0.03, 0.10)
    #: "between 5 and 20 percent exhibit one or more AADiff each day"
    daily_aadiff_fraction: Tuple[float, float] = (0.05, 0.20)
    #: "between 35 and 100 percent (50 percent median) of prefix+AS
    #: tuples are involved in at least one category of routing update"
    daily_any_fraction: Tuple[float, float] = (0.35, 1.00)
    daily_any_fraction_median: float = 0.50

    # -- multi-homing (§6, Figure 10) -----------------------------------------
    #: "more than 25 percent of networks are currently multi-homed"
    multi_homed_fraction: float = 0.25

    # -- Figure 7 ------------------------------------------------------------------
    #: "from 80 to 100 percent of the daily instability is contributed
    #: by Prefix+AS pairs announced less than fifty times"
    small_pair_mass: Tuple[float, float] = (0.80, 1.00)
    #: "from 20 to 90 percent (median of approximately 75%) of the
    #: AADiff events are contributed by routes that changed ten times
    #: or less"
    aadiff_small_mass_median: float = 0.75

    # -- router overload (§6) -----------------------------------------------------
    #: "sufficiently high rates of pathological updates (300 updates
    #: per second) are enough to crash a widely deployed, high-end
    #: model of Internet router"
    crash_rate_per_second: float = 300.0


#: The singleton constants instance used across experiments.
PAPER = PaperConstants()


#: The relative category mix of the non-WWDup updates (Figure 2's bars;
#: AADup and WADup "consistently dominate").  Shares are of the
#: non-WWDup total; derived by reading Figure 2's relative magnitudes.
FIGURE2_CATEGORY_MIX: Dict[str, float] = {
    "AADUP": 0.38,
    "WADUP": 0.30,
    "AADIFF": 0.12,
    "WADIFF": 0.08,
    "UNCATEGORIZED": 0.12,
}
