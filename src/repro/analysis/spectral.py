"""FFT-based spectral estimation (Figure 5's first method).

Figure 5a's correlogram: "a traditional fast Fourier transform (FFT)
of the autocorrelation function of the data" — the Blackman–Tukey /
correlogram power spectral density.  We implement that estimator plus
the peak-finding used to confirm the 24-hour and 7-day lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "autocorrelation",
    "correlogram_psd",
    "dominant_periods",
    "SpectralPeak",
]


def autocorrelation(series: Sequence[float], max_lag: int = None) -> np.ndarray:
    """Biased sample autocorrelation up to ``max_lag`` (default n//2)."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n == 0:
        return np.zeros(0)
    if max_lag is None:
        max_lag = n // 2
    x = x - x.mean()
    denominator = float(np.dot(x, x))
    if denominator == 0.0:
        return np.zeros(max_lag + 1)
    result = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        result[lag] = np.dot(x[: n - lag], x[lag:]) / denominator
    return result


def correlogram_psd(
    series: Sequence[float],
    max_lag: int = None,
    n_freq: int = 512,
) -> Tuple[np.ndarray, np.ndarray]:
    """Blackman–Tukey PSD: FFT of the (Bartlett-windowed) ACF.

    Returns ``(frequencies, power)`` with frequency in cycles per
    sample (so hourly samples give cycles/hour, matching Figure 5a's
    1/hour axis).
    """
    acf = autocorrelation(series, max_lag)
    m = acf.size
    if m == 0:
        return np.zeros(0), np.zeros(0)
    window = 1.0 - np.arange(m) / m  # Bartlett taper on the ACF
    tapered = acf * window
    # Two-sided symmetric extension, evaluated at n_freq positive freqs.
    freqs = np.linspace(0.0, 0.5, n_freq)
    lags = np.arange(1, m)
    power = np.empty(n_freq)
    for i, f in enumerate(freqs):
        power[i] = tapered[0] + 2.0 * np.dot(
            tapered[1:], np.cos(2.0 * np.pi * f * lags)
        )
    return freqs, np.maximum(power, 0.0)


@dataclass(frozen=True)
class SpectralPeak:
    """One significant spectral line."""

    frequency: float   #: cycles per sample
    period: float      #: samples per cycle
    power: float


def dominant_periods(
    freqs: Sequence[float],
    power: Sequence[float],
    n_peaks: int = 5,
    min_frequency: float = 1e-4,
) -> List[SpectralPeak]:
    """The ``n_peaks`` largest *local maxima* of the spectrum.

    ``min_frequency`` excludes the DC/trend end.  Peaks are returned
    in descending power order.
    """
    f = np.asarray(freqs, dtype=float)
    p = np.asarray(power, dtype=float)
    peaks: List[SpectralPeak] = []
    for i in range(1, len(p) - 1):
        if f[i] < min_frequency:
            continue
        if p[i] >= p[i - 1] and p[i] >= p[i + 1]:
            peaks.append(
                SpectralPeak(
                    frequency=float(f[i]),
                    period=float(1.0 / f[i]),
                    power=float(p[i]),
                )
            )
    peaks.sort(key=lambda peak: peak.power, reverse=True)
    return peaks[:n_peaks]


def has_period(
    peaks: Sequence[SpectralPeak],
    period: float,
    tolerance: float = 0.15,
) -> bool:
    """True if some peak's period is within ``tolerance`` (relative)
    of ``period`` — the Figure 5 check for the 24 h and 168 h lines."""
    return any(
        abs(peak.period - period) / period <= tolerance for peak in peaks
    )
