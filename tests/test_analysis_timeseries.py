"""Tests for time-series preparation and spectral estimation
(timeseries, spectral, mem, ssa)."""

import math

import numpy as np
import pytest

from repro.analysis.mem import burg, mem_psd
from repro.analysis.spectral import (
    autocorrelation,
    correlogram_psd,
    dominant_periods,
    has_period,
)
from repro.analysis.ssa import significant_frequencies, ssa_components
from repro.analysis.timeseries import (
    aggregate_bins,
    bin_records,
    linear_fit,
    log_detrend,
    threshold_above_mean,
)
from repro.collector.record import UpdateKind, UpdateRecord
from repro.net.prefix import Prefix


def W(time):
    return UpdateRecord(time, 1, 701, Prefix.parse("10.0.0.0/8"),
                        UpdateKind.WITHDRAW)


def synthetic_daily_series(n_days=60, noise=0.05, seed=1):
    """Hourly series with 24h and 168h cycles plus trend and noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_days * 24)
    daily = 1.0 + 0.5 * np.sin(2 * np.pi * t / 24.0)
    weekly = 1.0 + 0.3 * np.sin(2 * np.pi * t / 168.0)
    trend = 1.0 + 0.002 * t
    return 100.0 * daily * weekly * trend * (
        1.0 + noise * rng.standard_normal(t.size)
    )


class TestBinning:
    def test_bin_records_counts(self):
        records = [W(5.0), W(7.0), W(605.0)]
        counts = bin_records(records, bin_width=600.0)
        assert counts[0] == 2
        assert counts[1] == 1

    def test_empty(self):
        assert bin_records([], 600.0).size == 0

    def test_explicit_range(self):
        counts = bin_records([W(50.0)], bin_width=10.0, start=0.0, end=100.0)
        assert counts.size == 10
        assert counts[5] == 1

    def test_aggregate_bins(self):
        fine = list(range(12))
        coarse = aggregate_bins(fine, 6)
        assert list(coarse) == [sum(range(6)), sum(range(6, 12))]

    def test_aggregate_drops_ragged_tail(self):
        assert list(aggregate_bins([1, 1, 1, 1, 1], 2)) == [2, 2]

    def test_aggregate_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            aggregate_bins([1], 0)


class TestDetrending:
    def test_linear_fit_recovers_line(self):
        values = [2.0 + 0.5 * i for i in range(50)]
        slope, intercept = linear_fit(values)
        assert slope == pytest.approx(0.5)
        assert intercept == pytest.approx(2.0)

    def test_log_detrend_removes_exponential_growth(self):
        series = [100.0 * math.exp(0.01 * i) for i in range(200)]
        detrended = log_detrend(series)
        assert abs(detrended.mean()) < 1e-9
        assert detrended.std() < 1e-9  # pure trend → flat residual

    def test_log_detrend_preserves_oscillation(self):
        t = np.arange(200)
        series = 100.0 * np.exp(0.01 * t) * (1.0 + 0.3 * np.sin(t))
        detrended = log_detrend(series)
        assert detrended.std() > 0.1

    def test_floor_handles_zero_bins(self):
        detrended = log_detrend([0, 10, 0, 10])
        assert np.isfinite(detrended).all()

    def test_threshold_above_mean(self):
        data = [0.0] * 50 + [1.0] * 50
        threshold = threshold_above_mean(data, offset_std=0.5)
        assert 0.5 < threshold < 1.0


class TestFftSpectra:
    def test_autocorrelation_lag0_is_one(self):
        acf = autocorrelation(synthetic_daily_series())
        assert acf[0] == pytest.approx(1.0)

    def test_autocorrelation_periodic_signal(self):
        t = np.arange(480)
        acf = autocorrelation(np.sin(2 * np.pi * t / 24.0), max_lag=48)
        assert acf[24] > 0.8
        assert acf[12] < -0.8

    def test_correlogram_finds_daily_and_weekly(self):
        series = np.log(synthetic_daily_series())
        freqs, power = correlogram_psd(series, max_lag=400)
        peaks = dominant_periods(freqs, power, n_peaks=6)
        assert has_period(peaks, 24.0)
        assert has_period(peaks, 168.0, tolerance=0.3)

    def test_empty_series(self):
        f2, p2 = correlogram_psd([])
        assert f2.size == 0


class TestMem:
    def test_burg_recovers_ar1(self):
        rng = np.random.default_rng(2)
        n = 2000
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = 0.8 * x[i - 1] + rng.standard_normal()
        a, variance = burg(x, order=1)
        # Model x_t = -a1 x_{t-1} + e  => a1 ≈ -0.8.
        assert a[0] == pytest.approx(-0.8, abs=0.05)
        assert variance == pytest.approx(1.0, rel=0.2)

    def test_burg_validates_input(self):
        with pytest.raises(ValueError):
            burg([1.0, 2.0], order=5)
        with pytest.raises(ValueError):
            burg([1.0, 2.0, 3.0], order=0)

    def test_mem_finds_daily_cycle(self):
        series = np.log(synthetic_daily_series())
        freqs, power = mem_psd(series, order=30)
        peaks = dominant_periods(freqs, power, n_peaks=5)
        assert has_period(peaks, 24.0)

    def test_mem_agrees_with_fft_on_peak(self):
        """The paper's cross-validation: both methods find the same
        dominant line."""
        series = np.log(synthetic_daily_series())
        f1, p1 = correlogram_psd(series, max_lag=400)
        f2, p2 = mem_psd(series, order=30)
        peak_fft = f1[np.argmax(p1[5:]) + 5]
        peak_mem = f2[np.argmax(p2[5:]) + 5]
        assert peak_fft == pytest.approx(peak_mem, abs=0.01)

    def test_mem_psd_positive(self):
        series = np.log(synthetic_daily_series())
        _, power = mem_psd(series, order=20)
        assert (power > 0).all()


class TestSsa:
    def test_components_ordered_by_variance(self):
        series = np.log(synthetic_daily_series())
        components = ssa_components(series, window=168)
        shares = [c.variance_share for c in components]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) <= 1.0 + 1e-9

    def test_oscillatory_pairs_share_frequency(self):
        """A pure sinusoid gives a leading eigen-pair at its frequency."""
        t = np.arange(600)
        series = np.sin(2 * np.pi * t / 24.0)
        components = ssa_components(series, window=96, n_components=2)
        for c in components[:2]:
            assert c.frequency == pytest.approx(1 / 24.0, abs=0.01)

    def test_significant_frequencies_finds_cycles(self):
        series = np.log(synthetic_daily_series())
        found = significant_frequencies(series, window=200, seed=1)
        periods = [c.period for c in found]
        assert any(abs(p - 24.0) / 24.0 < 0.15 for p in periods)
        assert any(p > 100.0 for p in periods)  # the weekly component

    def test_white_noise_yields_nothing(self):
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(800)
        found = significant_frequencies(noise, window=200, seed=2)
        assert len(found) <= 1  # at most a borderline artifact

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError):
            ssa_components(np.zeros(10), window=8)
