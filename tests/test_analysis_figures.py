"""Tests for the figure-level analyses: interarrival (Fig 8), density
(Fig 3), contribution (Fig 6), distribution (Fig 7), affected (Fig 9),
multihoming (Fig 10)."""

import pytest

from repro.analysis.affected import DayAffected, affected_series_stats
from repro.analysis.contribution import (
    consistent_dominators,
    contribution_points,
    correlation,
)
from repro.analysis.density import (
    DensityCell,
    build_density_matrix,
)
from repro.analysis.distribution import (
    daily_cdf,
    dominated_days,
    mass_below,
    monthly_cdfs,
)
from repro.analysis.interarrival import (
    FIGURE8_BINS,
    bin_label,
    daily_boxes,
    histogram_proportions,
    interarrival_times,
    timer_bin_mass,
)
from repro.analysis.multihoming import (
    count_multihomed,
    series_summary,
)
from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.rib import LocRib
from repro.core.taxonomy import UpdateCategory
from repro.collector.record import UpdateKind, UpdateRecord
from repro.net.prefix import Prefix
from repro.topology.multihoming import MultihomingGrowthModel

from . import helpers

P = Prefix.parse
ATTRS = PathAttributes(as_path=AsPath((701,)), next_hop=1)


def A(time, prefix="10.0.0.0/8", asn=701, peer=1):
    return UpdateRecord(time, peer, asn, P(prefix), UpdateKind.ANNOUNCE, ATTRS)


def W(time, prefix="10.0.0.0/8", asn=701, peer=1):
    return UpdateRecord(time, peer, asn, P(prefix), UpdateKind.WITHDRAW)


def classified(records):
    """``(columns, codes)`` for the records in time order."""
    columns, codes, _ = helpers.classified(
        sorted(records, key=lambda r: r.time)
    )
    return columns, codes


class TestInterarrival:
    def test_bins_cover_paper_labels(self):
        assert len(FIGURE8_BINS) == 12
        assert bin_label(2) == "30s"
        assert bin_label(11) == "24h"

    def test_gaps_computed_per_pair(self):
        updates = classified(
            [A(0), A(30), A(60), A(0, prefix="11.0.0.0/8"),
             A(45, prefix="11.0.0.0/8")]
        )
        gaps = sorted(interarrival_times(*updates))
        assert gaps == [30.0, 30.0, 45.0]

    def test_category_filter(self):
        updates = classified([A(0), A(30), W(60), W(90), W(120)])
        wwdup_gaps = interarrival_times(*updates, UpdateCategory.WWDUP)
        assert wwdup_gaps.tolist() == [30.0]  # gaps among the two WWDUPs only

    def test_histogram_proportions(self):
        proportions = histogram_proportions([30.0, 30.0, 59.0, 3000.0])
        assert proportions[2] == pytest.approx(0.5)   # 30s bin
        assert proportions[3] == pytest.approx(0.25)  # 1m bin
        assert sum(proportions) == pytest.approx(1.0)

    def test_timer_bin_mass(self):
        proportions = histogram_proportions([30.0, 55.0, 7200.0, 3.0])
        assert timer_bin_mass(proportions) == pytest.approx(0.5)

    def test_gaps_beyond_24h_dropped(self):
        assert histogram_proportions([100000.0]) == [0.0] * 12

    def test_daily_boxes_median_and_quartiles(self):
        days = []
        for day in range(4):
            base = day * 86400.0
            # Each day: three AADups 30s apart.
            days.append(classified([A(base), A(base + 30), A(base + 60)]))
        boxes = daily_boxes(days, UpdateCategory.AADUP)
        bin_30s = boxes[2]
        assert bin_30s.median == pytest.approx(1.0)
        assert bin_30s.q1 <= bin_30s.median <= bin_30s.q3


class TestDensity:
    def _synthetic_days(self, n_days=28):
        """Counts with diurnal structure: busy afternoons, quiet nights,
        quiet weekends (days 5,6 mod 7)."""
        day_bins = {}
        for day in range(n_days):
            weekend = day % 7 >= 5
            bins = []
            for b in range(144):
                hour = b / 6.0
                level = 30 if hour < 6 else (400 if 12 <= hour else 150)
                if weekend:
                    level //= 4
                bins.append(level)
            day_bins[day] = bins
        return day_bins

    def test_shape_and_threshold(self):
        matrix = build_density_matrix(self._synthetic_days())
        assert matrix.cells.shape == (28, 144)
        assert matrix.missing_fraction() == 0.0

    def test_afternoon_darker_than_night(self):
        matrix = build_density_matrix(self._synthetic_days())
        afternoon = matrix.hour_band_fraction(12.0, 24.0)
        night = matrix.hour_band_fraction(0.0, 6.0)
        assert afternoon > night + 0.3

    def test_weekends_lighter(self):
        matrix = build_density_matrix(self._synthetic_days())
        weekdays = [d for d in matrix.days if d % 7 < 5]
        weekends = [d for d in matrix.days if d % 7 >= 5]
        assert matrix.high_fraction_for_days(weekends) < (
            matrix.high_fraction_for_days(weekdays)
        )

    def test_lost_bins_render_missing(self):
        day_bins = self._synthetic_days(7)
        matrix = build_density_matrix(
            day_bins, lost_bins={3: set(range(10))}
        )
        row = matrix.days.index(3)
        assert (matrix.cells[row, :10] == DensityCell.MISSING).all()

    def test_rejects_wrong_bin_count(self):
        with pytest.raises(ValueError):
            build_density_matrix({0: [1, 2, 3]})

    def test_raw_threshold_grows_with_trend(self):
        """The constant detrended threshold maps to growing raw counts
        (the paper's 345 -> 770)."""
        day_bins = {}
        for day in range(60):
            growth = 1.0 + 0.02 * day
            day_bins[day] = [int(100 * growth)] * 72 + [int(300 * growth)] * 72
        matrix = build_density_matrix(day_bins)
        early = matrix.raw_threshold_equivalent(2)
        late = matrix.raw_threshold_equivalent(57)
        assert late > 1.5 * early


class TestContribution:
    def _daily(self):
        daily = {}
        for day in range(5):
            records = []
            base = day * 86400.0
            # Three peers with differing update volumes, unrelated to
            # share; peer asn 1 produces 1 update, asn 2 -> 3, asn 3 -> 6.
            for i, (asn, n) in enumerate([(1, 1), (2, 3), (3, 6)]):
                for j in range(n):
                    records.append(
                        W(base + i * 100 + j, prefix=f"10.{asn}.{j}.0/24",
                          asn=asn, peer=asn)
                    )
            daily[day] = classified(records)
        return daily

    def test_points_one_per_peer_per_day(self):
        shares = {1: 0.6, 2: 0.3, 3: 0.1}
        points = contribution_points(
            self._daily(), shares, UpdateCategory.WWDUP
        )
        assert len(points) == 5 * 3

    def test_update_shares_sum_to_one_per_day(self):
        shares = {1: 0.6, 2: 0.3, 3: 0.1}
        points = contribution_points(
            self._daily(), shares, UpdateCategory.WWDUP
        )
        for day in range(5):
            total = sum(p.update_share for p in points if p.day == day)
            assert total == pytest.approx(1.0)

    def test_anticorrelated_example(self):
        shares = {1: 0.6, 2: 0.3, 3: 0.1}  # big share, few updates
        points = contribution_points(
            self._daily(), shares, UpdateCategory.WWDUP
        )
        assert correlation(points) < 0.0

    def test_consistent_dominator_detected(self):
        shares = {1: 0.6, 2: 0.3, 3: 0.1}
        points = contribution_points(
            self._daily(), shares, UpdateCategory.WWDUP
        )
        assert consistent_dominators(points, share_threshold=0.5) == [3]
        assert consistent_dominators(points, share_threshold=0.7) == []

    def test_empty(self):
        assert correlation([]) == 0.0
        assert consistent_dominators([]) == []


class TestDistribution:
    def _updates(self):
        records = []
        # 10 pairs with 2 events, 1 pair with 80 events.
        for i in range(10):
            records.append(W(i * 10.0, prefix=f"10.0.{i}.0/24"))
            records.append(W(i * 10.0 + 5, prefix=f"10.0.{i}.0/24"))
        for j in range(80):
            records.append(W(1000.0 + j, prefix="10.1.0.0/24"))
        return classified(records)

    def test_cdf_structure(self):
        curve = daily_cdf(*self._updates(), UpdateCategory.WWDUP)
        assert curve.total_events == 100
        assert curve.cumulative[-1] == pytest.approx(1.0)
        assert curve.thresholds == sorted(curve.thresholds)

    def test_mass_at_or_below(self):
        curve = daily_cdf(*self._updates(), UpdateCategory.WWDUP)
        # Pairs with <=2 events hold 20 of 100 events.
        assert curve.mass_at_or_below(2) == pytest.approx(0.2)
        assert curve.mass_at_or_below(80) == pytest.approx(1.0)
        assert curve.mass_at_or_below(1) == 0.0

    def test_none_when_category_absent(self):
        assert daily_cdf(*self._updates(), UpdateCategory.AADIFF) is None

    def test_monthly_and_dominated_days(self):
        daily = {0: self._updates(), 1: classified([W(86400.0 + i * 7)
                 for i in range(5)])}
        curves = monthly_cdfs(daily, UpdateCategory.WWDUP)
        assert [c.day for c in curves] == [0, 1]
        # Day 0 has a pair with 80 > 50 events carrying 80% of mass.
        assert dominated_days(curves, k=50, heavy_mass=0.5) == [0]
        masses = mass_below(curves, 50)
        assert masses[0] == pytest.approx(0.2)
        assert masses[1] == pytest.approx(1.0)


class TestAffected:
    def test_series_stats_and_coverage_filter(self):
        days = [
            DayAffected(
                day=d,
                fractions={UpdateCategory.WWDUP: (d + 1) / 20},
                any_fraction=(d + 1) / 20,
                coverage=0.5 if d == 9 else 1.0,  # last day badly covered
            )
            for d in range(10)
        ]
        stats = affected_series_stats(days)
        assert stats.n_days == 9  # day 9 filtered out
        assert stats.any_range[0] == pytest.approx(1 / 20)
        assert stats.any_range[1] == pytest.approx(9 / 20)

    def test_all_days_filtered_raises(self):
        day = DayAffected(day=0, fractions={}, any_fraction=0.0, coverage=0.1)
        with pytest.raises(ValueError):
            affected_series_stats([day])


class TestMultihomingAnalysis:
    def test_count_multihomed_rib(self):
        rib = LocRib()
        # Prefix A: two distinct paths; prefix B: one.
        rib.apply_announce(1, P("10.0.0.0/8"),
                           PathAttributes(as_path=AsPath((7,)), next_hop=1))
        rib.apply_announce(2, P("10.0.0.0/8"),
                           PathAttributes(as_path=AsPath((8,)), next_hop=2))
        rib.apply_announce(1, P("11.0.0.0/8"),
                           PathAttributes(as_path=AsPath((7,)), next_hop=1))
        assert count_multihomed(rib) == 1

    def test_series_summary_shape(self):
        model = MultihomingGrowthModel(seed=4)
        summary = series_summary(model.series(270))
        assert summary.has_gap
        assert summary.growth_per_day > 0
        assert summary.grew_linearly
        assert summary.final_fraction > 0.25
        # The late-May upgrade is the peak.
        assert 55 <= summary.peak_day <= 59


class TestDensityAscii:
    def _matrix(self):
        day_bins = {}
        for day in range(14):
            weekend = day % 7 >= 5
            bins = []
            for b in range(144):
                hour = b / 6.0
                level = 30 if hour < 6 else (400 if 12 <= hour else 150)
                if weekend:
                    level //= 4
                bins.append(level)
            day_bins[day] = bins
        return build_density_matrix(day_bins, lost_bins={3: set(range(144))})

    def test_render_fits_box(self):
        art = self._matrix().render_ascii(max_width=40, max_height=24)
        lines = art.splitlines()
        assert len(lines) <= 26  # rows + axis
        assert all(len(line) <= 48 for line in lines)

    def test_render_shows_structure(self):
        art = self._matrix().render_ascii()
        assert "#" in art and "." in art
        # The fully lost day renders as a blank column somewhere.
        assert " " in art.splitlines()[5]

    def test_axis_labels_present(self):
        art = self._matrix().render_ascii()
        assert "12:00" in art
        assert "00:00" in art
