"""Per-peer update contribution vs routing-table share (Figure 6).

Figure 6 scatters, for every peer and every day of a month, the peer's
share of the default-free routing table (x) against its share of that
day's updates in one category (y).  The findings: points do not
cluster on the diagonal (no correlation between table share and update
share), and no AS consistently dominates.

:func:`contribution_points` builds the scatter; :func:`correlation`
and :func:`consistent_dominators` compute the two checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.columns import RecordColumns
from ..core.instability import counts_by_peer_columns
from ..core.taxonomy import UpdateCategory

__all__ = [
    "ContributionPoint",
    "contribution_points",
    "correlation",
    "consistent_dominators",
]


@dataclass(frozen=True)
class ContributionPoint:
    """One scatter point: a peer on a day in one category."""

    day: int
    peer_asn: int
    table_share: float
    update_share: float


def contribution_points(
    daily_updates: Dict[int, Tuple[RecordColumns, np.ndarray]],
    table_shares: Dict[int, float],
    category: UpdateCategory,
) -> List[ContributionPoint]:
    """Build Figure 6's scatter for one category.

    ``daily_updates`` maps day → that day's classified batch
    ``(columns, codes)``; ``table_shares`` maps peer ASN → share of
    the routing table.
    """
    points: List[ContributionPoint] = []
    for day, (columns, codes) in sorted(daily_updates.items()):
        by_peer = counts_by_peer_columns(columns, codes)
        day_total = sum(
            counts[category] for counts in by_peer.values()
        )
        if day_total == 0:
            continue
        for asn, share in table_shares.items():
            count = by_peer[asn][category] if asn in by_peer else 0
            points.append(
                ContributionPoint(
                    day=day,
                    peer_asn=asn,
                    table_share=share,
                    update_share=count / day_total,
                )
            )
    return points


def correlation(points: Sequence[ContributionPoint]) -> float:
    """Pearson correlation between table share and update share.

    The paper's claim is the *absence* of correlation ("few days
    cluster about the line"); the Figure 6 experiment checks this
    stays small.
    """
    if len(points) < 2:
        return 0.0
    x = np.asarray([p.table_share for p in points])
    y = np.asarray([p.update_share for p in points])
    if x.std() == 0 or y.std() == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


def consistent_dominators(
    points: Sequence[ContributionPoint],
    share_threshold: float = 0.3,
    day_fraction: float = 0.8,
) -> List[int]:
    """Peers contributing over ``share_threshold`` of updates on at
    least ``day_fraction`` of days — the "no single AS consistently
    dominates" check expects this empty (or nearly)."""
    by_peer_days: Dict[int, List[float]] = {}
    days = {p.day for p in points}
    for point in points:
        by_peer_days.setdefault(point.peer_asn, []).append(
            point.update_share
        )
    dominators: List[int] = []
    for asn, shares in by_peer_days.items():
        heavy_days = sum(1 for s in shares if s > share_threshold)
        if days and heavy_days / len(days) >= day_fraction:
            dominators.append(asn)
    return sorted(dominators)
