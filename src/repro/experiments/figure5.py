"""Figure 5: time-series analysis of the update rate.

Figure 5a overlays an FFT correlogram and a maximum-entropy spectrum
of the detrended log update rate (hourly aggregates, August–September)
and finds "significant frequencies at seven days, and 24 hours".
Figure 5b lists the top five frequencies extracted by singular
spectrum analysis within a 99% white-noise confidence interval —
"Frequencies 1 and 2 ... represent the weekly cycle ... The remaining
three frequencies demonstrate the 24 hour periodicity."

The reproduction builds the same two months of hourly aggregates from
the generator's aggregate tier, applies the same log-detrend, and runs
all three estimators.
"""

from __future__ import annotations

import numpy as np

from ..analysis.mem import mem_psd
from ..analysis.spectral import correlogram_psd, dominant_periods, has_period
from ..analysis.ssa import significant_frequencies
from ..analysis.timeseries import aggregate_bins, log_detrend
from ..core.report import ExperimentResult, Series, Table
from ..core.taxonomy import INSTABILITY_CATEGORIES
from ..workloads.generator import TraceGenerator

__all__ = ["run", "AUGUST_SEPTEMBER"]

#: Campaign days for August and September (March 1 epoch).
AUGUST_SEPTEMBER = range(153, 214)


def run(seed: int = 3) -> ExperimentResult:
    generator = TraceGenerator(seed=seed)
    series = generator.campaign_bin_series(
        AUGUST_SEPTEMBER, tuple(INSTABILITY_CATEGORIES)
    )
    combined = np.zeros(len(AUGUST_SEPTEMBER) * 144, dtype=float)
    for counts in series.values():
        combined += np.asarray(counts, dtype=float)
    hourly = aggregate_bins(combined, 6)
    detrended = log_detrend(hourly)

    freqs_fft, power_fft = correlogram_psd(
        detrended, max_lag=600, n_freq=1024
    )
    peaks_fft = dominant_periods(freqs_fft, power_fft, n_peaks=10)
    freqs_mem, power_mem = mem_psd(detrended, order=40)
    peaks_mem = dominant_periods(freqs_mem, power_mem, n_peaks=8)
    ssa = significant_frequencies(detrended, window=240, seed=seed)

    result = ExperimentResult(
        "figure5", "Spectral analysis of hourly update rate (Aug-Sep)"
    )
    fft_series = Series("FFT correlogram peaks (period hours, power)")
    for peak in peaks_fft[:5]:
        fft_series.add(round(peak.period, 1), round(peak.power, 3))
    result.series.append(fft_series)
    mem_series = Series("MEM peaks (period hours, power)")
    for peak in peaks_mem[:5]:
        mem_series.add(round(peak.period, 1), round(peak.power, 3))
    result.series.append(mem_series)

    table = Table(
        "Figure 5b — SSA significant frequencies",
        ["#", "Frequency (1/hour)", "Period (hours)", "Variance share"],
    )
    for i, component in enumerate(ssa, start=1):
        table.add_row(
            i,
            round(component.frequency, 5),
            round(component.period, 1),
            round(component.variance_share, 4),
        )
    result.tables.append(table)

    result.record(
        "fft_finds_24h", int(has_period(peaks_fft, 24.0)), expect=(1, 1)
    )
    result.record(
        "fft_finds_weekly",
        int(has_period(peaks_fft, 168.0, tolerance=0.2)),
        expect=(1, 1),
    )
    result.record(
        "mem_finds_24h", int(has_period(peaks_mem, 24.0)), expect=(1, 1)
    )
    ssa_periods = [c.period for c in ssa]
    result.record(
        "ssa_has_daily_component",
        int(any(abs(p - 24.0) / 24.0 < 0.2 for p in ssa_periods)),
        expect=(1, 1),
    )
    result.record(
        "ssa_has_weekly_component",
        int(any(p > 100.0 for p in ssa_periods)),
        expect=(1, 1),
    )
    result.record(
        "ssa_significant_count", len(ssa), expect=(2, 5)
    )
    return result
