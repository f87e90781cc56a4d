"""Unit tests for instability metrics and reporting."""

import pytest

from repro.core.columns import RecordColumns
from repro.core.instability import (
    CategoryCounts,
    counts_by_peer_columns,
    counts_by_prefix_as_columns,
    persistence,
)
from repro.core.report import ExperimentResult, Series, Table, format_number
from repro.core.taxonomy import UpdateCategory

from .helpers import classified, classified_counts
from .test_classifier import A, W, ATTRS_B, P, PFX


class TestCategoryCounts:
    def test_rollups(self):
        counts = classified_counts([A(0), A(1), A(2, ATTRS_B), W(3), W(4)])
        # NEW, AADUP, AADIFF, PLAIN_WITHDRAW, WWDUP
        assert counts.total == 5
        assert counts[UpdateCategory.AADUP] == 1
        assert counts.instability == 1       # the AADIFF
        assert counts.pathological == 2      # AADUP + WWDUP
        assert counts[UpdateCategory.NEW_ANNOUNCE] == 1
        assert counts[UpdateCategory.PLAIN_WITHDRAW] == 1

    def test_pathological_fraction(self):
        counts = classified_counts([W(0), W(1), W(2), W(3)])
        assert counts.pathological_fraction == 1.0

    def test_empty_fraction_zero(self):
        assert CategoryCounts().pathological_fraction == 0.0

    def test_merged(self):
        a = classified_counts([W(0)])
        b = classified_counts([W(0)])
        merged = a.merged(b)
        assert merged.total == 2
        assert a.total == 1  # originals untouched

    def test_policy_changes_counted(self):
        from .test_classifier import ATTRS_A_POLICY

        counts = classified_counts([A(0), A(1, ATTRS_A_POLICY)])
        assert counts.policy_changes == 1

    def test_as_dict_covers_all_categories(self):
        d = CategoryCounts().as_dict()
        assert set(d) == {c.name for c in UpdateCategory}


class TestGroupings:
    def test_counts_by_peer(self):
        by_peer = counts_by_peer_columns(
            *classified(
                [
                    A(0, peer=1, asn=701),
                    W(1, peer=2, asn=1239),
                    A(2, peer=1, asn=701),
                ]
            )
        )
        assert by_peer[701].total == 2
        assert by_peer[1239].total == 1

    def test_counts_by_prefix_as(self):
        columns, codes, _ = classified(
            [A(0), A(1), A(2), W(3), W(4), W(5)]
        )
        pairs = counts_by_prefix_as_columns(columns, codes)
        assert pairs[(PFX, 701)] == 6

    def test_counts_by_prefix_as_filtered(self):
        columns, codes, _ = classified([A(0), A(1), W(2), W(3)])
        wwdups = counts_by_prefix_as_columns(
            columns, codes, UpdateCategory.WWDUP
        )
        assert wwdups == {(PFX, 701): 1}


class TestPersistence:
    @staticmethod
    def episodes(records, **kwargs):
        return persistence(RecordColumns.from_records(records), **kwargs)

    def test_single_event_zero_duration(self):
        assert self.episodes([W(100.0)]) == {(PFX, 701): [0.0]}

    def test_burst_measured(self):
        episodes = self.episodes([A(0), A(30), A(60), A(90)])
        assert episodes[(PFX, 701)] == [90.0]

    def test_quiet_gap_splits_episodes(self):
        episodes = self.episodes(
            [A(0), A(60), A(10000), A(10030)], quiet_gap=300.0
        )
        assert episodes[(PFX, 701)] == [60.0, 30.0]

    def test_paper_bound_under_five_minutes(self):
        """A 30s-periodic pathological burst persists < 5 minutes."""
        episodes = self.episodes([A(t) for t in range(0, 150, 30)])
        assert all(d < 300.0 for d in episodes[(PFX, 701)])

    def test_empty_batch(self):
        assert persistence(RecordColumns.empty()) == {}

    def test_all_withdraw_batch_grouped_per_pair(self):
        """Two pairs interleaved in time, withdrawals only, arriving
        out of time order: each pair's events sort and split on their
        own clock, not the batch's."""
        other = P("10.0.0.0/8")
        episodes = self.episodes(
            [
                W(400.0),
                W(20.0, prefix=other),
                W(0.0),
                W(10.0, prefix=other),
                W(50.0),
                W(5000.0, prefix=other),
            ]
        )
        assert episodes == {
            (PFX, 701): [50.0, 0.0],
            (other, 701): [10.0, 0.0],
        }

    def test_gap_exactly_at_quiet_gap_continues_the_episode(self):
        assert self.episodes([W(0.0), W(300.0)]) == {(PFX, 701): [300.0]}


class TestReporting:
    def test_format_number(self):
        assert format_number(1234567) == "1,234,567"
        assert format_number(0.1234) == "0.1234"
        assert format_number(3.14159) == "3.14"
        assert format_number(12345.6) == "12,346"

    def test_table_renders_aligned(self):
        table = Table("T", ["name", "count"])
        table.add_row("alpha", 5)
        table.add_row("b", 12345)
        text = table.render()
        assert "T" in text and "alpha" in text and "12,345" in text

    def test_table_rejects_wrong_arity(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_series_render(self):
        series = Series("updates")
        for i in range(100):
            series.add(i, i * 2)
        text = series.render(max_points=5)
        assert "updates" in text and "100 points" in text

    def test_experiment_result_checks(self):
        result = ExperimentResult("fig-x", "test")
        result.record("in_range", 50, expect=(10, 100))
        result.record("close_scalar", 95, expect=100)
        result.record("off_scalar", 10, expect=100)
        checks = result.all_checks()
        assert checks["in_range"] and checks["close_scalar"]
        assert not checks["off_scalar"]
        text = result.render()
        assert "MISMATCH" in text and "OK" in text

    def test_experiment_result_zero_expectation(self):
        result = ExperimentResult("x", "y")
        result.record("zero", 0, expect=0)
        assert result.check("zero")
