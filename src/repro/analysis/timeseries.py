"""Time-series preparation: aggregation and log-detrending.

Section 5.1's treatment (following Bloomfield's handling of the
Beveridge wheat prices): the update rate is modelled as ``x_t = T_t *
I_t`` with a trend and an oscillating term, so ``log x_t = log T_t +
log I_t``; the trend is removed with a least-squares line on the
logarithm, leaving ``log I_t`` oscillating about zero.  "This avoids
adding frequency biases that can be introduced due to linear
filtering."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..collector.record import UpdateRecord

__all__ = [
    "bin_records",
    "BinnedSeries",
    "aggregate_bins",
    "log_detrend",
    "linear_fit",
    "threshold_above_mean",
]


def bin_records(
    records: Iterable[UpdateRecord],
    bin_width: float = 600.0,
    start: float = 0.0,
    end: float = None,
) -> np.ndarray:
    """Count records into fixed-width time bins.

    ``records`` may be an iterable of :class:`UpdateRecord`, a
    columnar :class:`~repro.core.columns.RecordColumns` batch, or a
    bare array of timestamps — the columnar forms skip the per-record
    Python loop entirely.  ``end`` defaults to the latest record
    (rounded up to a whole bin).  Returns an integer array of per-bin
    counts.
    """
    if isinstance(records, np.ndarray) and records.dtype.names is None:
        times = np.asarray(records, dtype=float)
    elif hasattr(records, "data") and hasattr(records, "attrs"):
        times = records.data["time"]  # RecordColumns
    else:
        times = np.fromiter((r.time for r in records), dtype=float)
    if times.size == 0:
        return np.zeros(0, dtype=int)
    if end is None:
        end = times.max() + bin_width
    n_bins = max(1, int(np.ceil((end - start) / bin_width)))
    # floor(x / w) via true division + floor: same result, and several
    # times faster than floor_divide's per-element correction step.
    indices = np.floor((times - start) / bin_width).astype(int)
    valid = (indices >= 0) & (indices < n_bins)
    return np.bincount(indices[valid], minlength=n_bins)


@dataclass(frozen=True, eq=False)
class BinnedSeries:
    """A mergeable window of fixed-width bin counts.

    ``offset`` positions the window on the global bin axis (bin index
    of ``counts[0]``), so partial series computed over disjoint time
    ranges — e.g. one campaign shard each — can be summed into the
    full-campaign series with ``+``.  Merging is associative and
    commutative (integer addition over the span union), so shard order
    never matters; the zero-length series is the identity.
    """

    offset: int
    counts: np.ndarray
    width: float = 600.0

    @classmethod
    def empty(cls, width: float = 600.0) -> "BinnedSeries":
        """The merge identity."""
        return cls(0, np.zeros(0, dtype=np.int64), width)

    @classmethod
    def from_records(
        cls,
        records,
        bin_width: float,
        start: float,
        end: float,
    ) -> "BinnedSeries":
        """Bin ``records`` over ``[start, end)`` (see
        :func:`bin_records`); ``start`` must sit on a bin boundary."""
        offset, remainder = divmod(start, bin_width)
        if remainder:
            raise ValueError(
                f"start {start} is not a multiple of bin_width {bin_width}"
            )
        counts = bin_records(records, bin_width, start=start, end=end)
        return cls(int(offset), counts.astype(np.int64), bin_width)

    @property
    def end(self) -> int:
        """One past the last bin index covered."""
        return self.offset + len(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __add__(self, other: "BinnedSeries") -> "BinnedSeries":
        if isinstance(other, int) and other == 0:  # sum() start value
            return self
        if not isinstance(other, BinnedSeries):
            return NotImplemented
        if len(self.counts) == 0:
            return other
        if len(other.counts) == 0:
            return self
        if self.width != other.width:
            raise ValueError(
                f"bin widths differ: {self.width} vs {other.width}"
            )
        lo = min(self.offset, other.offset)
        hi = max(self.end, other.end)
        merged = np.zeros(hi - lo, dtype=np.int64)
        merged[self.offset - lo:self.end - lo] += self.counts
        merged[other.offset - lo:other.end - lo] += other.counts
        return BinnedSeries(lo, merged, self.width)

    __radd__ = __add__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinnedSeries):
            return NotImplemented
        return (
            self.width == other.width
            and self.offset == other.offset
            and len(self.counts) == len(other.counts)
            and bool((self.counts == other.counts).all())
        )

    def dense(self, total_bins: Optional[int] = None) -> np.ndarray:
        """The series as a plain array starting at bin 0, zero-padded
        to ``total_bins`` (default: just past the last covered bin)."""
        n = max(self.end, total_bins or 0)
        out = np.zeros(n, dtype=np.int64)
        out[self.offset:self.end] = self.counts
        return out

    def to_payload(self) -> dict:
        return {
            "offset": self.offset,
            "width": self.width,
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "BinnedSeries":
        return cls(
            int(payload["offset"]),
            np.asarray(payload["counts"], dtype=np.int64),
            float(payload["width"]),
        )


def aggregate_bins(counts: Sequence[int], factor: int) -> np.ndarray:
    """Re-aggregate fine bins into coarser ones (e.g. 10-min → hourly
    with ``factor=6``).  A ragged tail is dropped."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    array = np.asarray(counts)
    usable = (len(array) // factor) * factor
    return array[:usable].reshape(-1, factor).sum(axis=1)


def linear_fit(values: Sequence[float]) -> Tuple[float, float]:
    """Least-squares ``(slope, intercept)`` of values against index."""
    y = np.asarray(values, dtype=float)
    if y.size == 0:
        return (0.0, 0.0)
    x = np.arange(y.size, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def log_detrend(
    counts: Sequence[float], floor: float = 1.0
) -> np.ndarray:
    """The paper's detrending: log-transform, subtract the LSQ line.

    Zero bins are floored at ``floor`` before the log (the paper's
    plots treat empty bins as minimal activity).  The result oscillates
    about zero.
    """
    array = np.maximum(np.asarray(counts, dtype=float), floor)
    logged = np.log(array)
    slope, intercept = linear_fit(logged)
    trend = slope * np.arange(logged.size) + intercept
    return logged - trend


def threshold_above_mean(
    detrended: Sequence[float], offset_std: float = 0.5
) -> float:
    """Figure 3's threshold: "a point above the mean of the detrended
    data" — mean plus ``offset_std`` standard deviations."""
    array = np.asarray(detrended, dtype=float)
    if array.size == 0:
        return 0.0
    return float(array.mean() + offset_std * array.std())
