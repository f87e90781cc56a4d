"""The paper's analysis pipeline: time-series preparation, spectral
estimation (FFT/MEM/SSA), inter-arrival histograms, the density matrix,
per-AS contribution, Prefix+AS distributions, affected-route fractions,
and multi-homing counting."""

from .timeseries import (
    aggregate_bins,
    bin_records,
    linear_fit,
    log_detrend,
    threshold_above_mean,
)
from .spectral import (
    SpectralPeak,
    autocorrelation,
    correlogram_psd,
    dominant_periods,
    has_period,
)
from .mem import burg, mem_psd
from .ssa import SsaComponent, significant_frequencies, ssa_components
from .interarrival import (
    FIGURE8_BINS,
    BinBox,
    bin_label,
    daily_boxes,
    histogram_proportions,
    interarrival_times,
    timer_bin_mass,
)
from .density import DensityCell, DensityMatrix, build_density_matrix
from .contribution import (
    ContributionPoint,
    consistent_dominators,
    contribution_points,
    correlation,
)
from .distribution import (
    DailyCdf,
    daily_cdf,
    dominated_days,
    mass_below,
    monthly_cdfs,
)
from .affected import (
    AffectedSeriesStats,
    DayAffected,
    affected_series_stats,
)
from .convergence import (
    ConvergenceProbe,
    ConvergenceReport,
    settle_time,
)
from .storms import (
    StormEpisode,
    detect_storms,
    flap_rate_series,
    session_loss_bursts,
)
from .multihoming import (
    MultihomingSummary,
    count_multihomed,
    series_summary,
)
from .detection import (
    FLAGS,
    AsRelationships,
    ColumnDetector,
    DetectionResult,
    detect_records_columnar,
    detection_digest,
    path_flags,
    stability_scores,
)

__all__ = [
    "aggregate_bins",
    "bin_records",
    "linear_fit",
    "log_detrend",
    "threshold_above_mean",
    "SpectralPeak",
    "autocorrelation",
    "correlogram_psd",
    "dominant_periods",
    "has_period",
    "burg",
    "mem_psd",
    "SsaComponent",
    "significant_frequencies",
    "ssa_components",
    "FIGURE8_BINS",
    "BinBox",
    "bin_label",
    "daily_boxes",
    "histogram_proportions",
    "interarrival_times",
    "timer_bin_mass",
    "DensityCell",
    "DensityMatrix",
    "build_density_matrix",
    "ContributionPoint",
    "consistent_dominators",
    "contribution_points",
    "correlation",
    "DailyCdf",
    "daily_cdf",
    "dominated_days",
    "mass_below",
    "monthly_cdfs",
    "AffectedSeriesStats",
    "DayAffected",
    "affected_series_stats",
    "ConvergenceProbe",
    "ConvergenceReport",
    "settle_time",
    "StormEpisode",
    "detect_storms",
    "flap_rate_series",
    "session_loss_bursts",
    "MultihomingSummary",
    "count_multihomed",
    "series_summary",
    "FLAGS",
    "AsRelationships",
    "ColumnDetector",
    "DetectionResult",
    "detect_records_columnar",
    "detection_digest",
    "path_flags",
    "stability_scores",
]
