"""Multi-homing analysis (Figure 10).

Two entry points:

- :func:`count_multihomed` — count prefixes reachable via multiple
  distinct paths in a routing table snapshot (what the paper counted
  in Mae-East's tables each day);
- :func:`series_summary` — the Figure 10 readings over a generated
  :class:`~repro.topology.multihoming.MultihomingSeries`: linear
  growth rate, the >25% fraction, the late-May spike, and the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bgp.rib import LocRib
from ..topology.multihoming import MultihomingSeries

__all__ = ["count_multihomed", "MultihomingSummary", "series_summary"]


def count_multihomed(rib: LocRib) -> int:
    """Prefixes with candidate routes through 2+ distinct origins or
    next hops in ``rib`` — the "advertised with one or more [extra]
    paths" count of Figure 10."""
    count = 0
    for prefix in rib.prefixes():
        candidates = rib.adj_in.candidates(prefix)
        paths = {
            (route.attributes.next_hop, tuple(route.attributes.as_path))
            for route in candidates
        }
        if len(paths) >= 2:
            count += 1
    return count


@dataclass
class MultihomingSummary:
    """Figure 10's shape readings."""

    growth_per_day: float
    start_count: int
    end_count: int
    peak_count: int
    peak_day: int
    has_gap: bool
    final_fraction: float

    @property
    def grew_linearly(self) -> bool:
        """True if start→end growth is consistent with the fitted
        daily rate (within 50%), i.e. no super-linear blow-up."""
        days = max(1, self.observed_days)
        implied = (self.end_count - self.start_count) / days
        if self.growth_per_day == 0:
            return implied == 0
        return 0.5 <= implied / self.growth_per_day <= 2.0

    observed_days: int = 0


def series_summary(
    series: MultihomingSeries,
    total_prefixes: int = 42000,
) -> MultihomingSummary:
    """Summarize a daily multi-homed-count series."""
    observed = series.observed()
    if not observed:
        raise ValueError("empty series")
    counts = [c for _, c in observed]
    peak_index = max(range(len(counts)), key=lambda i: counts[i])
    return MultihomingSummary(
        growth_per_day=series.growth_per_day(),
        start_count=counts[0],
        end_count=counts[-1],
        peak_count=counts[peak_index],
        peak_day=observed[peak_index][0],
        has_gap=any(c is None for c in series.counts),
        final_fraction=counts[-1] / total_prefixes,
        observed_days=observed[-1][0] - observed[0][0],
    )
