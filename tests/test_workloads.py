"""Tests for calibration, the diurnal model, incidents, and the
statistical trace generator."""

import math

import pytest

from repro.collector.store import SECONDS_PER_DAY, SECONDS_PER_HOUR
from repro.core.columns import AttributeTable, ColumnClassifier
from repro.core.instability import CategoryCounts
from repro.core.taxonomy import UpdateCategory
from repro.workloads.calibration import FIGURE2_CATEGORY_MIX, PAPER
from repro.workloads.diurnal import (
    DiurnalModel,
    day_of_week,
    hour_of_day,
)
from repro.workloads.generator import (
    GeneratorTargets,
    PeerPopulation,
    TraceGenerator,
)
from repro.workloads.incidents import (
    BINS_PER_DAY,
    Incident,
    IncidentSchedule,
    default_campaign_schedule,
)

from .helpers import NO_PAIR_STATE


class TestCalibration:
    def test_updates_per_network_consistent(self):
        # 4.5M / 42k ≈ 107, which the paper rounds to "125 per network".
        low, high = PAPER.daily_updates
        assert 90 <= (low + high) / 2 / PAPER.total_prefixes <= 150

    def test_figure2_mix_sums_to_one(self):
        assert sum(FIGURE2_CATEGORY_MIX.values()) == pytest.approx(1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PAPER.total_prefixes = 1


class TestDiurnal:
    def setup_method(self):
        self.model = DiurnalModel()

    def test_calendar_helpers(self):
        assert hour_of_day(0.0) == 0.0
        assert hour_of_day(13.5 * SECONDS_PER_HOUR) == 13.5
        assert day_of_week(0.0) == 0  # Monday epoch
        assert day_of_week(5 * SECONDS_PER_DAY) == 5

    def test_overnight_trough(self):
        """Midnight–6am is significantly quieter than the afternoon."""
        night = self.model.intensity(3 * SECONDS_PER_HOUR)
        afternoon = self.model.intensity(14 * SECONDS_PER_HOUR)
        assert afternoon > 3 * night

    def test_noon_to_midnight_densest(self):
        halves = [
            sum(
                self.model.intensity(h * SECONDS_PER_HOUR)
                for h in range(start, start + 12)
            )
            for start in (0, 12)
        ]
        assert halves[1] > halves[0]

    def test_weekend_depression(self):
        monday = self.model.intensity(14 * SECONDS_PER_HOUR)
        saturday = self.model.intensity(
            5 * SECONDS_PER_DAY + 14 * SECONDS_PER_HOUR
        )
        assert saturday < 0.7 * monday

    def test_linear_trend(self):
        early = self.model.intensity(14 * SECONDS_PER_HOUR)
        # Same Monday 14:00 slot, 28 weeks later (also a Monday).
        late_day = 196
        late = self.model.intensity(
            late_day * SECONDS_PER_DAY + 14 * SECONDS_PER_HOUR
        )
        expected = 1.0 + self.model.trend_per_day * late_day
        # Day 196 is inside the summer window? (92..160) — no, past it.
        assert late / early == pytest.approx(expected, rel=0.01)

    def test_summer_evening_flattening(self):
        evening_hour = 20 * SECONDS_PER_HOUR
        june_monday = 95 * SECONDS_PER_DAY  # inside summer window
        march_monday = 4 * 7 * SECONDS_PER_DAY
        june = self.model.intensity(june_monday + evening_hour)
        march = self.model.intensity(march_monday + evening_hour)
        # Remove the trend to compare shapes.
        june /= 1.0 + self.model.trend_per_day * 95
        march /= 1.0 + self.model.trend_per_day * 28
        assert june < march

    def test_bin_weights_length(self):
        weights = self.model.bin_weights(10)
        assert len(weights) == 144
        assert all(w > 0 for w in weights)


class TestIncidents:
    def test_incident_coverage(self):
        incident = Incident("x", 5, 7, 4.0, start_bin=10, end_bin=20)
        assert incident.covers(6, 15)
        assert not incident.covers(4, 15)
        assert not incident.covers(6, 25)

    def test_multiplier_composes(self):
        schedule = IncidentSchedule(
            [
                Incident("a", 0, 0, 2.0),
                Incident("b", 0, 0, 3.0, start_bin=0, end_bin=10),
            ]
        )
        assert schedule.multiplier(0, 5) == 6.0
        assert schedule.multiplier(0, 50) == 2.0
        assert schedule.multiplier(1, 5) == 1.0

    def test_lost_bins_and_coverage(self):
        schedule = IncidentSchedule()
        schedule.mark_lost_bins(3, range(0, 72))
        assert schedule.coverage(3) == pytest.approx(0.5)
        assert schedule.lost_bins(3) == set(range(72))
        schedule.mark_lost_day(4)
        assert schedule.coverage(4) == 0.0

    def test_default_campaign_has_upgrade_and_maintenance(self):
        schedule = default_campaign_schedule(seed=1)
        names = {i.name for i in schedule.incidents}
        assert "isp-infrastructure-upgrade" in names
        assert "maintenance-window" in names
        # The upgrade multiplies whole days by ~8x.
        assert schedule.multiplier(88, 30) >= 8.0

    def test_default_campaign_deterministic(self):
        a = default_campaign_schedule(seed=2)
        b = default_campaign_schedule(seed=2)
        assert [i.name for i in a.incidents] == [i.name for i in b.incidents]


@pytest.fixture(scope="module")
def small_population():
    return PeerPopulation.synthesize(
        n_peers=10, total_prefixes=2000, n_dominant=3, seed=5
    )


@pytest.fixture(scope="module")
def generator(small_population):
    return TraceGenerator(population=small_population, seed=5)


class TestPeerPopulation:
    def test_share_structure(self, small_population):
        shares = sorted(
            (p.table_share for p in small_population.peers), reverse=True
        )
        assert sum(shares) == pytest.approx(1.0)
        # Dominant peers hold far more than the tail.
        assert shares[0] > 5 * shares[-1]

    def test_prefix_counts_match_shares(self, small_population):
        for peer in small_population.peers:
            assert len(peer.prefixes) >= 1
        total = sum(len(p.prefixes) for p in small_population.peers)
        assert abs(total - 2000) <= len(small_population.peers)

    def test_pairs_unique(self, small_population):
        pairs = small_population.all_pairs
        assert len(pairs) == len(set(pairs))


class TestDayPlan:
    def test_deterministic(self, generator):
        a = generator.plan_day(50)
        b = generator.plan_day(50)
        assert a.category_total(UpdateCategory.AADUP) == b.category_total(
            UpdateCategory.AADUP
        )

    def test_participation_fractions_in_range(self, generator):
        plan = generator.plan_day(10)
        total = generator.population.total_pairs
        frac = len(plan.affected_pairs(UpdateCategory.WADIFF)) / total
        assert 0.0 < frac < 0.25

    def test_bin_counts_sum_to_total(self, generator):
        plan = generator.plan_day(10)
        for category in plan.participation:
            counts = plan.bin_counts(category)
            assert len(counts) == BINS_PER_DAY
            if not plan.lost_bins:
                assert sum(counts) == plan.category_total(category)

    def test_lost_bins_zeroed(self, generator):
        schedule = IncidentSchedule()
        schedule.mark_lost_bins(3, range(0, 10))
        gen = TraceGenerator(
            population=generator.population, schedule=schedule, seed=5
        )
        plan = gen.plan_day(3)
        counts = plan.bin_counts(UpdateCategory.AADUP)
        assert all(counts[i] == 0 for i in range(10))

    def test_diurnal_shape_in_bins(self, generator):
        plan = generator.plan_day(14)  # a Monday
        counts = plan.bin_counts(UpdateCategory.AADUP)
        night = sum(counts[0:36])      # 00:00-06:00
        afternoon = sum(counts[72:108])  # 12:00-18:00
        assert afternoon > 2 * night

    def test_wwdup_dominates_planned_volume(self, generator):
        plan = generator.plan_day(20)
        wwdup = plan.category_total(UpdateCategory.WWDUP)
        instability = sum(
            plan.category_total(c)
            for c in (
                UpdateCategory.AADIFF,
                UpdateCategory.WADIFF,
                UpdateCategory.WADUP,
            )
        )
        assert wwdup > 3 * instability


class TestMaterialization:
    def test_records_time_ordered_and_in_day(self, generator):
        columns = generator.day_columns(30, pair_fraction=0.2)
        times = columns.time.tolist()
        assert times == sorted(times)
        # Episode tails may spill a few hours past midnight (real
        # cross-midnight flap episodes do too).
        assert all(
            30 * SECONDS_PER_DAY <= t < 31.4 * SECONDS_PER_DAY for t in times
        )

    def test_classifier_reproduces_planned_categories(self, small_population):
        """After a warm-up day, classified counts should be close to
        the planned per-category totals (scaled by pair_fraction=1)."""
        gen = TraceGenerator(population=small_population, seed=9)
        clf = ColumnClassifier()
        table = AttributeTable()
        # Warm-up: state (generator's and classifier's) converges.
        clf.classify(gen.day_columns(0, pair_fraction=1.0, attrs=table))
        plan = gen.plan_day(1)
        counts = CategoryCounts.from_codes(
            *clf.classify(
                gen.day_columns(1, pair_fraction=1.0, plan=plan, attrs=table)
            )
        )
        for category in (
            UpdateCategory.AADUP,
            UpdateCategory.WWDUP,
            UpdateCategory.AADIFF,
        ):
            planned = plan.category_total(category)
            got = counts[category]
            assert got >= 0.7 * planned, category
            # Some overshoot is possible from bootstrap side-effects.
            assert got <= 1.3 * planned + 10, category

    def test_pair_fraction_scales_volume(self, generator):
        full = len(generator.day_columns(40, pair_fraction=1.0))
        generator.restore_state(NO_PAIR_STATE)
        tenth = len(generator.day_columns(40, pair_fraction=0.1))
        generator.restore_state(NO_PAIR_STATE)
        assert 0.03 * full < tenth < 0.25 * full

    def test_timer_spacing_mass(self, small_population):
        """Per-category event spacings concentrate on the 30s/60s bins
        (the Figure 8 signature).  Raw update gaps also include the
        short W->A micro-outages, so the category-filtered measure is
        the meaningful one."""
        from repro.analysis.interarrival import (
            histogram_proportions,
            interarrival_times,
            timer_bin_mass,
        )
        from repro.core.columns import RecordColumns, classify_columns

        gen = TraceGenerator(population=small_population, seed=3)
        table = AttributeTable()
        columns = RecordColumns.concat(
            [
                gen.day_columns(day, pair_fraction=1.0, attrs=table)
                for day in range(3)
            ]
        )
        codes, _ = classify_columns(columns)
        for category in (UpdateCategory.AADUP, UpdateCategory.AADIFF):
            gaps = interarrival_times(columns, codes, category)
            mass = timer_bin_mass(histogram_proportions(gaps))
            assert mass > 0.4, category

    def test_campaign_bin_series_shape(self, generator):
        series = generator.campaign_bin_series(
            range(7), [UpdateCategory.AADIFF]
        )
        assert len(series[UpdateCategory.AADIFF]) == 7 * BINS_PER_DAY


class TestCalibrationGuardrails:
    """Regression guards: the generator's absolute magnitudes must stay
    in the paper's bands (retuning one knob must not silently shift
    the headline volumes)."""

    def test_daily_totals_in_paper_band(self):
        gen = TraceGenerator(seed=2)
        totals = []
        fractions = []
        for day in range(60, 200, 20):
            plan = gen.plan_day(day)
            total = sum(
                plan.category_total(c) for c in plan.participation
            )
            path = plan.category_total(UpdateCategory.WWDUP) + (
                plan.category_total(UpdateCategory.AADUP)
            )
            totals.append(total)
            fractions.append(path / total)
        # Days range from quiet (~1M) to bursty (beyond 6M); the
        # *typical* day sits in the paper's 3-6M band, and every day
        # is overwhelmingly pathological.
        assert all(800_000 <= t <= 9_000_000 for t in totals), totals
        typical = sorted(totals)[len(totals) // 2]
        assert 2_000_000 <= typical <= 6_500_000, totals
        assert all(f >= 0.94 for f in fractions), fractions

    def test_instability_matches_figure3_threshold_scale(self):
        gen = TraceGenerator(seed=2)
        from repro.core.taxonomy import INSTABILITY_CATEGORIES

        plan = gen.plan_day(120)
        instability = sum(
            plan.category_total(c) for c in INSTABILITY_CATEGORIES
        )
        # ~345-770 per 10-min bin means ~50k-110k per day mid-campaign.
        assert 30_000 <= instability <= 200_000

    def test_wwdup_band(self):
        gen = TraceGenerator(seed=2)
        values = [
            gen.plan_day(day).category_total(UpdateCategory.WWDUP)
            for day in (70, 130, 190)
        ]
        # Paper: 0.5M - 6M per day at Mae-East.
        assert all(500_000 <= v <= 8_000_000 for v in values), values
