"""Inter-arrival time histograms (Figure 8).

Figure 8 bins the inter-arrival times of Prefix+AS events into
log-spaced bins from one second to 24 hours, per category, and draws a
modified box plot per bin over the days of a month: "the black dot
represents the median proportion for all the days for each event bin;
the vertical line below the dot contains the first quartile... and the
line above the dot represents the fourth quartile."

The headline result: "the predominant frequencies in each of the
graphs are captured by the thirty second and one minute bins... these
frequencies account for half of the measured statistics."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.columns import RecordColumns, group_order, prefix_key
from ..core.taxonomy import UpdateCategory

__all__ = [
    "FIGURE8_BINS",
    "bin_label",
    "interarrival_times",
    "histogram_counts",
    "histogram_proportions",
    "proportions_from_counts",
    "BinBox",
    "daily_boxes",
    "timer_bin_mass",
]

#: Figure 8's bin edges (seconds): 1s 5s 30s 1m 5m 10m 30m 1h 2h 4h 8h 24h.
#: Each labelled bin b holds gaps in (previous_edge, b].
FIGURE8_BINS: Tuple[float, ...] = (
    1.0, 5.0, 30.0, 60.0, 300.0, 600.0, 1800.0,
    3600.0, 7200.0, 14400.0, 28800.0, 86400.0,
)

_LABELS = (
    "1s", "5s", "30s", "1m", "5m", "10m", "30m", "1h", "2h", "4h", "8h", "24h",
)


def bin_label(index: int) -> str:
    """The paper's label for bin ``index``."""
    return _LABELS[index]


def interarrival_times(
    columns: RecordColumns,
    codes: Optional[np.ndarray] = None,
    category: Optional[UpdateCategory] = None,
) -> np.ndarray:
    """Gaps between consecutive events of each Prefix+AS pair, by one
    :func:`~repro.core.columns.group_order` sort over (Prefix+AS,
    time) and a masked diff.

    Restricted to one category when given (Figure 8 plots each of the
    four fine-grained categories separately); ``codes`` are the
    row-aligned category codes.  Gaps come out grouped per pair in
    key order.
    """
    data = columns.data
    if category is not None:
        data = data[np.asarray(codes) == category.value]
    if len(data) < 2:
        return np.empty(0, dtype=float)
    order, new_pair = group_order(
        (data["peer_asn"], prefix_key(data["net"], data["plen"])),
        data["time"],
    )
    return np.diff(np.take(data["time"], order))[~new_pair[1:]]


def histogram_counts(gaps: Sequence[float]) -> np.ndarray:
    """Raw per-bin gap counts (gaps above 24h are dropped).

    The mergeable form of the Figure 8 histogram: partial counts from
    independent shards sum with ``+`` (associative, commutative, zero
    array as identity) and :func:`proportions_from_counts` turns the
    merged total into the paper's proportions.
    """
    if not isinstance(gaps, np.ndarray):
        gaps = np.asarray(list(gaps), dtype=float)
    # Bin b holds gaps in (edge[b-1], edge[b]].
    indices = np.searchsorted(FIGURE8_BINS, gaps, side="left")
    indices = indices[indices < len(FIGURE8_BINS)]  # drop > 24h
    return np.bincount(indices, minlength=len(FIGURE8_BINS)).astype(np.int64)


def proportions_from_counts(counts: Sequence[int]) -> List[float]:
    """Per-bin proportions from raw counts (all zeros if empty)."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return [0.0] * len(FIGURE8_BINS)
    return (counts / total).tolist()


def histogram_proportions(gaps: Sequence[float]) -> List[float]:
    """The proportion of ``gaps`` in each Figure 8 bin."""
    return proportions_from_counts(histogram_counts(gaps))


@dataclass(frozen=True)
class BinBox:
    """Figure 8's modified box for one bin: median and quartiles of
    the daily proportions."""

    label: str
    median: float
    q1: float
    q3: float


def daily_boxes(
    daily_updates: Sequence[Tuple[RecordColumns, np.ndarray]],
    category: UpdateCategory,
) -> List[BinBox]:
    """Box statistics over days for one category (one Figure 8 panel);
    ``daily_updates`` is one classified ``(columns, codes)`` batch per
    day."""
    per_day: List[List[float]] = []
    for columns, codes in daily_updates:
        gaps = interarrival_times(columns, codes, category)
        per_day.append(histogram_proportions(gaps))
    boxes: List[BinBox] = []
    for i in range(len(FIGURE8_BINS)):
        values = [day[i] for day in per_day if sum(day) > 0]
        if not values:
            boxes.append(BinBox(bin_label(i), 0.0, 0.0, 0.0))
            continue
        arr = np.asarray(values)
        boxes.append(
            BinBox(
                label=bin_label(i),
                median=float(np.median(arr)),
                q1=float(np.percentile(arr, 25)),
                q3=float(np.percentile(arr, 75)),
            )
        )
    return boxes


def timer_bin_mass(proportions: Sequence[float]) -> float:
    """The combined mass of the 30-second and 1-minute bins — the
    paper's "account for half of the measured statistics" check."""
    index_30s = _LABELS.index("30s")
    index_1m = _LABELS.index("1m")
    return proportions[index_30s] + proportions[index_1m]
