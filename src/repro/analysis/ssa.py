"""Singular spectrum analysis (Figure 5b's frequency extraction).

"A software tool was used to extract the specific frequencies through
singular spectrum analysis, the top five of which are shown in figure
5b.  These frequencies lie in a 99% confidence interval generated
using white noise on the data."

SSA embeds the series in a trajectory matrix of lagged windows,
eigendecomposes its covariance, and pairs eigenvectors that represent
oscillatory components; each pair's dominant frequency is estimated
from its eigenvector.  The white-noise significance test (a small
Monte-Carlo version of the paper's 99% interval) compares component
variances against those of white-noise surrogates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = ["SsaComponent", "ssa_components", "significant_frequencies"]


@dataclass(frozen=True)
class SsaComponent:
    """One SSA eigen-component."""

    index: int
    variance_share: float
    frequency: float       #: cycles per sample (0 for trend-like)
    period: float          #: samples (inf for trend-like)


def _trajectory_covariance(x: np.ndarray, window: int) -> np.ndarray:
    n = x.size
    k = n - window + 1
    rows = np.lib.stride_tricks.sliding_window_view(x, window)
    return (rows.T @ rows) / k


def _eigenvector_frequency(vector: np.ndarray) -> float:
    """Dominant frequency of an eigenvector via its periodogram."""
    v = vector - vector.mean()
    spectrum = np.abs(np.fft.rfft(v)) ** 2
    freqs = np.fft.rfftfreq(v.size)
    if spectrum.size <= 1:
        return 0.0
    peak = int(np.argmax(spectrum[1:])) + 1
    return float(freqs[peak])


def ssa_components(
    series: Sequence[float],
    window: int = None,
    n_components: int = 10,
) -> List[SsaComponent]:
    """Decompose ``series`` into its leading SSA components.

    ``window`` defaults to a quarter of the series (capped at 240
    samples — ten days of hourly data — so the weekly line is
    resolvable).  Components are ordered by variance share.
    """
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    n = x.size
    if window is None:
        window = min(max(2, n // 4), 240)
    if n < 2 * window:
        raise ValueError(
            f"series length {n} too short for window {window}"
        )
    covariance = _trajectory_covariance(x, window)
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]
    total = float(eigenvalues.sum()) or 1.0
    components: List[SsaComponent] = []
    for i in range(min(n_components, window)):
        frequency = _eigenvector_frequency(eigenvectors[:, i])
        components.append(
            SsaComponent(
                index=i,
                variance_share=float(eigenvalues[i]) / total,
                frequency=frequency,
                period=float("inf") if frequency == 0.0 else 1.0 / frequency,
            )
        )
    return components


def significant_frequencies(
    series: Sequence[float],
    window: int = None,
    n_frequencies: int = 5,
    n_surrogates: int = 20,
    confidence: float = 0.99,
    seed: int = 0,
) -> List[SsaComponent]:
    """The top oscillatory SSA components that beat white noise.

    A component is significant when its variance share exceeds the
    ``confidence`` quantile of the leading variance shares obtained
    from white-noise surrogates of the same length and variance — the
    paper's "99% confidence interval generated using white noise".
    Oscillatory pairs (nearly equal frequency) are reported once per
    member, like Figure 5b's five lines (two weekly + three daily).
    """
    components = ssa_components(series, window)
    x = np.asarray(series, dtype=float)
    rng = np.random.default_rng(seed)
    surrogate_shares: List[float] = []
    for _ in range(n_surrogates):
        noise = rng.normal(0.0, x.std() or 1.0, x.size)
        noise_components = ssa_components(noise, window, n_components=1)
        surrogate_shares.append(noise_components[0].variance_share)
    surrogate_shares.sort()
    cut_index = min(
        len(surrogate_shares) - 1,
        int(confidence * len(surrogate_shares)),
    )
    threshold = surrogate_shares[cut_index]
    significant = [
        c
        for c in components
        if c.variance_share > threshold and c.frequency > 0.0
    ]
    return significant[:n_frequencies]
