"""The instability density matrix (Figure 3).

Figure 3 renders seven months of instability as a day × time-of-day
grid of ten-minute aggregates: black above a threshold on the
log-detrended data, gray below, white where data is missing; weekends
are marked on the axis.  This module computes that matrix and the
summary statistics the experiment checks (diurnal contrast, weekend
contrast, the 10am maintenance line, incident days).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from .timeseries import log_detrend, threshold_above_mean

__all__ = ["DensityCell", "DensityMatrix", "build_density_matrix"]

BINS_PER_DAY = 144


class DensityCell:
    """Cell states of the Figure 3 grid."""

    MISSING = 0   #: white — no data collected
    LOW = 1       #: light gray — below threshold
    HIGH = 2      #: black — above threshold


@dataclass
class DensityMatrix:
    """The computed Figure 3 grid plus its inputs.

    ``cells[day][bin]`` holds a :class:`DensityCell` state;
    ``raw[day][bin]`` the raw counts (-1 for missing); ``threshold``
    the detrended-log threshold actually applied.
    """

    cells: np.ndarray
    raw: np.ndarray
    detrended: np.ndarray
    threshold: float
    days: List[int]

    # -- summary statistics -------------------------------------------------

    def high_fraction_by_bin(self) -> np.ndarray:
        """Share of days each time-of-day bin is black (columns of the
        visual pattern: afternoons dark, nights light)."""
        present = self.cells != DensityCell.MISSING
        high = self.cells == DensityCell.HIGH
        with np.errstate(invalid="ignore"):
            return np.where(
                present.sum(axis=0) > 0,
                high.sum(axis=0) / np.maximum(present.sum(axis=0), 1),
                0.0,
            )

    def high_fraction_for_days(self, days: Sequence[int]) -> float:
        """Black-cell share over a subset of days (weekends, say)."""
        rows = [i for i, day in enumerate(self.days) if day in set(days)]
        if not rows:
            return 0.0
        sub = self.cells[rows]
        present = (sub != DensityCell.MISSING).sum()
        if present == 0:
            return 0.0
        return float((sub == DensityCell.HIGH).sum() / present)

    def hour_band_fraction(self, start_hour: float, end_hour: float) -> float:
        """Black share within a daily hour band across all days."""
        start_bin = int(start_hour * 6)
        end_bin = int(end_hour * 6)
        sub = self.cells[:, start_bin:end_bin]
        present = (sub != DensityCell.MISSING).sum()
        if present == 0:
            return 0.0
        return float((sub == DensityCell.HIGH).sum() / present)

    def missing_fraction(self) -> float:
        return float((self.cells == DensityCell.MISSING).mean())

    def render_ascii(
        self, max_width: int = 72, max_height: int = 36
    ) -> str:
        """Render the Figure 3 grid as ASCII art.

        Columns are days (left→right through the campaign), rows are
        time-of-day (midnight at the bottom, like the paper's figure);
        ``#`` = above threshold, ``.`` = below, space = missing data.
        The grid is majority-downsampled to fit the given box.
        """
        n_days, n_bins = self.cells.shape
        day_step = max(1, -(-n_days // max_width))
        bin_step = max(1, -(-n_bins // max_height))
        rows: List[str] = []
        for bin_start in range(n_bins - bin_step, -1, -bin_step):
            row_chars = []
            for day_start in range(0, n_days, day_step):
                block = self.cells[
                    day_start:day_start + day_step,
                    bin_start:bin_start + bin_step,
                ]
                high = int((block == DensityCell.HIGH).sum())
                low = int((block == DensityCell.LOW).sum())
                missing = int((block == DensityCell.MISSING).sum())
                if missing >= high + low:
                    row_chars.append(" ")
                elif high >= low:
                    row_chars.append("#")
                else:
                    row_chars.append(".")
            hour = (bin_start // 6) % 24
            label = f"{hour:02d}:00" if bin_start % (6 * bin_step) == 0 else "     "
            rows.append(f"{label} |" + "".join(row_chars))
        rows.append("      +" + "-" * ((n_days + day_step - 1) // day_step))
        return "\n".join(rows)

    def raw_threshold_equivalent(self, day_index: int) -> float:
        """The raw 10-minute count the threshold corresponds to on a
        given day — the paper's "345 updates ... in March to 770 ...
        in September" statement (the threshold is constant in
        detrended-log space, so it grows with the trend in raw space).
        """
        logged = np.log(np.maximum(self.raw[day_index], 1.0))
        detrended_day = self.detrended[day_index]
        # raw = exp(detrended + trend): recover the day's trend level
        # from any present bin, then map the threshold back.
        present = self.raw[day_index] >= 0
        if not present.any():
            return float("nan")
        trend = logged[present] - detrended_day[present]
        return float(np.exp(self.threshold + np.median(trend)))


def build_density_matrix(
    day_bins: Dict[int, Sequence[int]],
    lost_bins: Optional[Dict[int, Set[int]]] = None,
    threshold_offset_std: float = 0.5,
) -> DensityMatrix:
    """Build the Figure 3 matrix from per-day 10-minute counts.

    ``day_bins`` maps day index → 144 instability counts; ``lost_bins``
    marks collection outages (rendered white).  The threshold is
    computed on the concatenated log-detrended series, exactly as the
    paper describes.
    """
    days = sorted(day_bins)
    raw = np.full((len(days), BINS_PER_DAY), -1.0)
    for row, day in enumerate(days):
        counts = np.asarray(day_bins[day], dtype=float)
        if counts.size != BINS_PER_DAY:
            raise ValueError(
                f"day {day}: expected {BINS_PER_DAY} bins, got {counts.size}"
            )
        raw[row] = counts
        for lost in (lost_bins or {}).get(day, ()):
            raw[row][lost] = -1.0
    flat = raw.reshape(-1)
    present_mask = flat >= 0
    detrended_flat = np.zeros_like(flat)
    detrended_flat[present_mask] = log_detrend(flat[present_mask])
    threshold = threshold_above_mean(
        detrended_flat[present_mask], threshold_offset_std
    )
    cells = np.full(raw.shape, DensityCell.MISSING, dtype=int)
    detrended = detrended_flat.reshape(raw.shape)
    present = raw >= 0
    cells[present & (detrended > threshold)] = DensityCell.HIGH
    cells[present & (detrended <= threshold)] = DensityCell.LOW
    return DensityMatrix(
        cells=cells,
        raw=raw,
        detrended=detrended,
        threshold=threshold,
        days=days,
    )
