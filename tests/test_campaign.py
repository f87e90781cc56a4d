"""Tests for the campaign layer: config, merge protocol, sharded
determinism, and manifest-based resume.

The determinism contract is the load-bearing one: an N-shard run on a
process pool must be bit-identical to the single-process run of the
same config.  That only holds because every merge below is associative
with an explicit identity — so those properties get their own tests,
over randomized shard splits and fold orders.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.interarrival import FIGURE8_BINS, histogram_counts
from repro.analysis.timeseries import BinnedSeries
from repro.campaign import (
    CampaignConfig,
    CampaignHooks,
    CampaignLayout,
    ConfigMismatch,
    PartialResult,
    run_campaign,
    run_shard,
)
from repro.analysis.interarrival import interarrival_times
from repro.bgp.attributes import PathAttributes, attribute_tuple
from repro.campaign import ShardAccumulator
from repro.collector.record import UpdateKind
from repro.core.columns import (
    NO_ATTR,
    RECORD_DTYPE,
    AttributeTable,
    ColumnClassifier,
    RecordColumns,
)
from repro.core.instability import (
    CategoryCounts,
    counts_by_peer_columns,
    counts_by_prefix_columns,
)
from repro.core.spill import read_chunk
from repro.core.taxonomy import FINE_GRAINED_CATEGORIES, UpdateCategory
from repro.verify.refgen import reference_twin
from repro.workloads.generator import TraceGenerator, campaign_generator

from .helpers import reseal_chunk, schema_one

ANNOUNCE, WITHDRAW = int(UpdateKind.ANNOUNCE), int(UpdateKind.WITHDRAW)

# Small population: ~13k records/day keeps each test run sub-second.
FAST = dict(n_peers=8, total_prefixes=240)


def fast_config(**overrides) -> CampaignConfig:
    params = dict(days=3, seed=5, shards=3, **FAST)
    params.update(overrides)
    return CampaignConfig(**params)


def fold(partials):
    """Partials merged left to right (shard-index order)."""
    return sum(partials, PartialResult.empty())


def shard_partials(config: CampaignConfig):
    """Each planned shard's PartialResult, computed inline."""
    return [run_shard(config, spec)[0] for spec in config.shard_plan()]


def whole_batch_partial(config, spec, whole) -> PartialResult:
    """The shard's PartialResult computed over its days as ONE batch,
    by the whole-batch analysis functions (and plain Python sets for
    pairs-per-day) — none of the streaming fold's code."""
    codes, policy = ColumnClassifier().classify(whole)
    counts = CategoryCounts.from_codes(codes, policy)
    interarrival = {"TOTAL": histogram_counts(interarrival_times(whole))}
    for category in FINE_GRAINED_CATEGORIES:
        interarrival[category.name] = histogram_counts(
            interarrival_times(whole, codes, category)
        )
    pairs = {}
    for time, asn, net, plen in zip(
        whole.time.tolist(),
        whole.peer_asn.tolist(),
        whole.data["net"].tolist(),
        whole.data["plen"].tolist(),
    ):
        pairs.setdefault(int(time // 86400), set()).add((asn, net, plen))
    return PartialResult(
        records=len(whole),
        counts=counts,
        bins=BinnedSeries.from_records(
            whole,
            config.bin_width,
            start=spec.day_lo * 86400.0,
            end=spec.day_hi * 86400.0,
        ),
        interarrival=interarrival,
        by_peer=counts_by_peer_columns(whole, codes, policy),
        by_prefix=counts_by_prefix_columns(whole),
        pairs_per_day={day: len(seen) for day, seen in pairs.items()},
        by_exchange={spec.exchange: counts},
    )


class TestCampaignConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(days=0)
        with pytest.raises(ValueError):
            CampaignConfig(days=3, shards=4)  # more shards than days
        with pytest.raises(ValueError):
            CampaignConfig(shards=0)
        with pytest.raises(ValueError):
            CampaignConfig(bin_width=7.0)  # does not divide a day
        with pytest.raises(KeyError):
            CampaignConfig(exchanges=("Mae-Nowhere",))
        with pytest.raises(KeyError):
            CampaignConfig(categories=("AADIFF", "NOT_A_CATEGORY"))

    def test_empty_category_selection_is_rejected(self):
        """An empty tuple used to fall through to "all categories" in
        the generator; it now means nothing there, and a campaign of
        nothing is refused here."""
        with pytest.raises(ValueError, match="at least one category"):
            CampaignConfig(categories=())
        assert CampaignConfig(categories=None).category_set() is None

    def test_day_ranges_partition_the_campaign(self):
        for days in (1, 3, 7, 14, 30):
            for shards in sorted({1, min(2, days), min(3, days), min(5, days)}):
                ranges = CampaignConfig(
                    days=days, shards=shards
                ).day_ranges()
                assert ranges[0][0] == 0
                assert ranges[-1][1] == days
                for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                    assert hi == lo  # contiguous
                sizes = [hi - lo for lo, hi in ranges]
                assert max(sizes) - min(sizes) <= 1  # near-equal

    def test_shard_plan_is_exchange_major_and_contiguous(self):
        config = CampaignConfig(
            days=4, shards=2, exchanges=("Mae-East", "AADS")
        )
        plan = config.shard_plan()
        assert [s.index for s in plan] == [0, 1, 2, 3]
        assert [s.exchange for s in plan] == [
            "Mae-East", "Mae-East", "AADS", "AADS"
        ]
        # Distinct exchanges get distinct generator seeds; the first
        # exchange keeps the config's own seed.
        assert plan[0].generator_seed == config.seed
        assert plan[2].generator_seed != config.seed

    def test_payload_round_trip_and_fingerprint(self):
        config = fast_config(categories=("AADIFF", "WADUP"))
        again = CampaignConfig.from_payload(config.to_payload())
        assert again == config
        assert again.fingerprint() == config.fingerprint()
        # out is not part of the workload identity.
        moved = CampaignConfig.from_payload(
            config.to_payload(), out="/tmp/elsewhere"
        )
        assert moved.fingerprint() == config.fingerprint()
        assert fast_config(seed=6).fingerprint() != config.fingerprint()

    def test_category_names_normalized(self):
        config = fast_config(categories=("aadiff", "WaDup"))
        assert config.categories == ("AADIFF", "WADUP")
        assert config.category_set() == (
            UpdateCategory.AADIFF, UpdateCategory.WADUP
        )


class TestMergeProtocol:
    """Identity + associativity for every mergeable aggregate."""

    def test_category_counts_identity_and_sum(self):
        counts = CategoryCounts.from_dict({"AADUP": 3, "WWDUP": 9}, 2)
        assert (0 + counts).as_dict() == counts.as_dict()
        total = sum([counts, counts])  # int 0 start value
        assert total.counts[UpdateCategory.AADUP] == 6
        assert total.policy_changes == 4

    def test_category_counts_associative(self):
        rng = random.Random(1)
        names = [c.name for c in UpdateCategory]
        parts = [
            CategoryCounts.from_dict(
                {name: rng.randrange(5) for name in names},
                rng.randrange(3),
            )
            for _ in range(6)
        ]
        left = sum(parts)
        right = parts[0] + (parts[1] + (parts[2] + sum(parts[3:])))
        assert left.as_dict() == right.as_dict()
        assert left.policy_changes == right.policy_changes

    def test_binned_series_identity(self):
        series = BinnedSeries(
            offset=10, counts=np.array([1, 2, 3], dtype=np.int64)
        )
        for merged in (BinnedSeries.empty() + series,
                       series + BinnedSeries.empty(),
                       0 + series):
            assert merged == series

    def test_binned_series_merges_disjoint_and_overlapping(self):
        a = BinnedSeries(offset=0, counts=np.array([1, 1], dtype=np.int64))
        b = BinnedSeries(offset=3, counts=np.array([5], dtype=np.int64))
        merged = a + b
        assert merged.offset == 0
        assert merged.counts.tolist() == [1, 1, 0, 5]
        overlap = merged + BinnedSeries(
            offset=1, counts=np.array([10, 10], dtype=np.int64)
        )
        assert overlap.counts.tolist() == [1, 11, 10, 5]

    def test_binned_series_width_mismatch_raises(self):
        a = BinnedSeries(offset=0, counts=np.ones(2, dtype=np.int64))
        b = BinnedSeries(
            offset=0, counts=np.ones(2, dtype=np.int64), width=300.0
        )
        with pytest.raises(ValueError):
            a + b

    def test_histogram_counts_merge_is_vector_addition(self):
        gaps = np.array([31.0, 31.0, 400.0])
        whole = histogram_counts(np.concatenate([gaps, gaps]))
        assert (whole == histogram_counts(gaps) * 2).all()
        assert whole.sum() == 6
        assert len(whole) == len(FIGURE8_BINS)

    def test_partial_result_identity(self):
        partial = shard_partials(fast_config(days=1, shards=1))[0]
        for merged in (PartialResult.empty() + partial,
                       partial + PartialResult.empty(),
                       0 + partial):
            assert merged.digest() == partial.digest()

    def test_partial_result_associative_over_fold_trees(self):
        """Real shard partials merged in randomized tree shapes all
        produce the same digest."""
        parts = shard_partials(fast_config(days=4, shards=4))
        reference = fold(parts).digest()
        rng = random.Random(7)
        for _ in range(5):
            work = list(parts)
            while len(work) > 1:
                i = rng.randrange(len(work) - 1)
                work[i:i + 2] = [work[i] + work[i + 1]]
            assert work[0].digest() == reference

    def test_payload_round_trip(self):
        partial = fold(shard_partials(fast_config()))
        again = PartialResult.from_payload(
            json.loads(json.dumps(partial.to_payload()))
        )
        assert again.digest() == partial.digest()
        assert again.records == partial.records
        assert again.counts.as_dict() == partial.counts.as_dict()


class TestShardedDeterminism:
    """The tentpole invariant: worker count never changes the result."""

    def test_randomized_shard_groupings_agree(self):
        """For a fixed shard plan, any random partition of the shards
        into groups — merged group-wise, then across groups — matches
        the straight shard-index-order fold.  (The shard *count* itself
        is part of the workload identity: a shard boundary is a defined
        generator/classifier restart, recorded in the fingerprint.)"""
        parts = shard_partials(fast_config(days=5, shards=5))
        reference = fold(parts).digest()
        rng = random.Random(13)
        for _ in range(5):
            shuffled = list(parts)
            rng.shuffle(shuffled)
            groups = []
            while shuffled:
                take = rng.randrange(1, len(shuffled) + 1)
                groups.append(fold(shuffled[:take]))
                shuffled = shuffled[take:]
            assert fold(groups).digest() == reference

    def test_pool_matches_single_process(self):
        """>= 3 shards on a 3-worker pool, bit-identical to inline."""
        config = fast_config(days=3, shards=3)
        inline = run_campaign(config, workers=1)
        pooled = run_campaign(config, workers=3)
        assert inline.complete and pooled.complete
        assert pooled.partial.digest() == inline.partial.digest()
        assert pooled.partial.to_payload() == inline.partial.to_payload()
        assert (pooled.bin_counts() == inline.bin_counts()).all()

    def test_multi_exchange_campaign_merges_per_exchange(self):
        config = fast_config(
            days=2, shards=2, exchanges=("Mae-East", "AADS")
        )
        result = run_campaign(config)
        assert set(result.partial.by_exchange) == {"Mae-East", "AADS"}
        by_exchange_total = sum(
            counts.total for counts in result.partial.by_exchange.values()
        )
        assert by_exchange_total == result.counts.total


class TestResume:
    def test_killed_run_resumes_without_regenerating(self, tmp_path):
        config = fast_config(out=str(tmp_path / "camp"))
        # A "killed" run: two of three shards complete.
        partial_run = run_campaign(config, stop_after=2)
        assert not partial_run.complete
        assert partial_run.shards_run == 2
        manifests = sorted(
            p.name for p in (tmp_path / "camp" / "manifest").iterdir()
        )
        assert manifests == ["shard-0000.json", "shard-0001.json"]

        resumed = run_campaign(config, resume=True)
        assert resumed.complete
        assert resumed.shards_loaded == 2  # finished days not regenerated
        assert resumed.shards_run == 1

        fresh = run_campaign(fast_config())  # in-memory reference
        assert resumed.partial.digest() == fresh.partial.digest()

    def test_resume_rejects_mismatched_config(self, tmp_path):
        out = str(tmp_path / "camp")
        run_campaign(fast_config(out=out), stop_after=1)
        with pytest.raises(ConfigMismatch):
            run_campaign(fast_config(seed=99, out=out), resume=True)

    def test_corrupt_result_is_recomputed(self, tmp_path):
        config = fast_config(out=str(tmp_path / "camp"))
        run_campaign(config)
        layout = CampaignLayout(config.out)
        spec = config.shard_plan()[1]
        layout.result_path(spec).write_text('{"records": 0}\n')
        resumed = run_campaign(config, resume=True)
        assert resumed.complete
        assert resumed.shards_loaded == 2  # the intact shards
        assert resumed.shards_run == 1  # the corrupted one, re-run
        fresh = run_campaign(fast_config())
        assert resumed.partial.digest() == fresh.partial.digest()

    def test_manifest_records_chunk_digests(self, tmp_path):
        config = fast_config(days=2, shards=1, out=str(tmp_path / "camp"))
        run_campaign(config)
        layout = CampaignLayout(config.out)
        spec = config.shard_plan()[0]
        manifest = json.loads(layout.manifest_path(spec).read_text())
        assert manifest["schema"] == 2
        assert manifest["records"] > 0
        assert len(manifest["result_sha256"]) == 64
        # One chunk descriptor per day, each matching its file's
        # independently recomputed digest and row count.
        from repro.core.spill import verify_chunk

        assert [c["day"] for c in manifest["chunks"]] == [0, 1]
        for entry in manifest["chunks"]:
            assert entry["file"].startswith("shards/shard-0000/")
            info = verify_chunk(layout.root / entry["file"])
            assert info.rows == entry["rows"] > 0
            assert info.sha256 == entry["sha256"]
            assert len(entry["sha256"]) == 64

    def test_archived_run_matches_in_memory_run(self, tmp_path):
        """The archive round trip (write → decode) is lossless."""
        config = fast_config(days=2, shards=2)
        on_disk = run_campaign(
            fast_config(days=2, shards=2, out=str(tmp_path / "camp"))
        )
        in_memory = run_campaign(config)
        assert on_disk.partial.digest() == in_memory.partial.digest()


class TestOutOfCore:
    """The out-of-core tier: streaming fold, in-process fast path,
    and day-level chunk reuse on resume."""

    def test_streaming_fold_matches_whole_batch_reference(self):
        """ShardAccumulator fed day by day reproduces the aggregates
        computed over the shard's days as one concatenated batch."""
        from repro.workloads.generator import campaign_generator

        config = fast_config(days=4, shards=1)
        spec = config.shard_plan()[0]

        accumulator = ShardAccumulator(config, spec)
        generator = campaign_generator(
            n_peers=config.n_peers,
            total_prefixes=config.total_prefixes,
            population_seed=spec.population_seed,
            generator_seed=spec.generator_seed,
        )
        batches = []
        for day in spec.days:
            columns = generator.day_columns(
                day, pair_fraction=1.0, attrs=AttributeTable()
            )
            batches.append(columns)
            accumulator.fold_day(day, columns)
        streamed = accumulator.result()

        reference = whole_batch_partial(
            config, spec, RecordColumns.concat(batches)
        )
        assert streamed.records == reference.records
        assert streamed.counts.as_dict() == reference.counts.as_dict()
        # Bins: dense over the shard window, bit-identical.
        assert streamed.bins == reference.bins
        # Inter-arrival: the day-boundary carry recovers every
        # cross-day gap the whole-batch sort sees.
        assert set(streamed.interarrival) == set(reference.interarrival)
        for name, expected in reference.interarrival.items():
            assert (streamed.interarrival[name] == expected).all(), name
        # The key-grouped tables, from the one packed-key order.
        assert streamed.by_peer == reference.by_peer
        assert streamed.by_prefix == reference.by_prefix
        assert streamed.pairs_per_day == reference.pairs_per_day
        assert sorted(streamed.pairs_per_day) == list(spec.days)
        assert streamed.digest() == reference.digest()

    @pytest.mark.parametrize("seed", range(8))
    def test_handbuilt_stream_folds_to_whole_batch_digest(self, seed):
        """A hand-built stream, cut into days a different way per seed,
        folds to the whole-batch digest.  It carries the shapes the
        packed (prefix, peer-ASN index) key has to survive: two
        peer_ids on one ASN, a 4-byte ASN, an ASN that first shows up
        mid-shard, one net at two prefix lengths, a pair silent for
        whole days, a category that comes and goes, and empty /
        single-record / all-withdraw / not-time-sorted day batches."""
        rng = random.Random(seed)
        table = AttributeTable()
        variants = [
            table.intern(PathAttributes(as_path=(701, 7), next_hop=1)),
            table.intern(PathAttributes(as_path=(701, 9, 7), next_hop=2)),
            table.intern(
                PathAttributes(as_path=(701, 7), next_hop=1, med=20)
            ),  # same forwarding tuple as variant 0: a policy flip
        ]
        ten = 10 << 24
        # (peer_id, peer_asn, net, plen)
        shared_a = (1, 701, ten, 8)
        shared_b = (2, 701, ten, 8)  # second peer_id, same Prefix+AS
        wide_asn = (3, 4_200_000_001, ten, 8)
        longer = (3, 4_200_000_001, ten, 16)  # same net, other length
        quiet = (1, 701, (192 << 24) | (168 << 16), 24)
        flapper = (4, 1239, (172 << 24) | (16 << 16), 12)
        latecomer = (5, 3, ten, 8)  # lowest ASN, first seen on day 2
        busy = (shared_a, shared_b, wide_asn, longer)
        everyone = busy + (quiet, flapper)

        days = rng.randint(7, 10)
        kinds = ["empty", "single", "withdraws"] + ["busy"] * (days - 5)
        rng.shuffle(kinds)
        kinds = ["busy"] + kinds + ["busy"]  # events before and after
        config = CampaignConfig(days=days, shards=1, seed=seed, **FAST)
        spec = config.shard_plan()[0]

        def rows_of(day, kind):
            def at():
                return day * 86400.0 + rng.uniform(0.0, 86399.0)

            if kind == "empty":
                return []
            if kind == "single":
                return [(at(), *rng.choice(busy), ANNOUNCE, variants[0])]
            if kind == "withdraws":
                return [
                    (at(), *route, WITHDRAW, int(NO_ATTR))
                    for route in everyone
                    for _ in range(rng.randint(1, 3))
                ]
            rows = []
            for route in busy:
                for _ in range(rng.randint(2, 12)):
                    rows.append((at(), *route, ANNOUNCE, rng.choice(variants)))
                rows.append((rows[-1][0], *rows[-1][1:]))  # a time tie
            if day in (0, days - 1):
                rows.append((at(), *quiet, ANNOUNCE, variants[1]))
            if day >= 2:
                rows.append((at(), *latecomer, ANNOUNCE, variants[0]))
            rng.shuffle(rows)  # batch order is not time order
            # The flapper flaps (WADUP, 31 s apart) on even days only
            # and merely repeats itself on odd ones; its rows keep
            # their stream order so the labels are the intended ones.
            t = day * 86400.0 + rng.uniform(0.0, 86000.0)
            flaps = [(t, *flapper, ANNOUNCE, variants[0])]
            if day % 2 == 0:
                for offset in (1.0, 32.0):
                    flaps.append(
                        (t + offset, *flapper, WITHDRAW, int(NO_ATTR))
                    )
                    flaps.append(
                        (t + offset + 30.0, *flapper, ANNOUNCE, variants[0])
                    )
            position = 0
            for row in flaps:
                position = rng.randint(position, len(rows))
                rows.insert(position, row)
                position += 1
            return rows

        accumulator = ShardAccumulator(config, spec)
        batches = []
        for day, kind in enumerate(kinds):
            columns = RecordColumns(
                np.array(rows_of(day, kind), dtype=RECORD_DTYPE), table
            )
            batches.append(columns)
            # A day with no records may be fed or skipped.
            if len(columns) or rng.random() < 0.5:
                accumulator.fold_day(day, columns)
        streamed = accumulator.result()

        whole = RecordColumns.concat(batches)
        assert not (np.diff(whole.time) >= 0).all()
        reference = whole_batch_partial(config, spec, whole)
        assert streamed.by_peer == reference.by_peer
        assert streamed.by_prefix == reference.by_prefix
        assert streamed.pairs_per_day == reference.pairs_per_day
        assert streamed.digest() == reference.digest()
        # The shapes are really there: the ASNs and both lengths kept
        # apart, cross-day gaps found, the flapper's WADUP gaps kept.
        assert {3, 701, 1239, 4_200_000_001} == set(streamed.by_peer)
        assert len(streamed.by_prefix) == 4
        assert "empty" in kinds and kinds.index("empty") not in (
            streamed.pairs_per_day
        )
        assert streamed.interarrival["TOTAL"][-1] > 0  # (8h, 24h] gaps
        assert streamed.interarrival["WADUP"].sum() > 0

    @staticmethod
    def folded(config, spec, batches, monkeypatch):
        """``batches`` (one per day from ``spec.day_lo``) through one
        accumulator: the partial, the classifier's state digest, and
        on how many days the fold could not use the classifier's
        groups and grouped the day again."""
        from repro.campaign import fold as fold_module

        regrouped = []

        def spy(*args, **kwargs):
            regrouped.append(1)
            return real(*args, **kwargs)

        real = fold_module.group_order
        accumulator = ShardAccumulator(config, spec)
        with monkeypatch.context() as patch:
            patch.setattr(fold_module, "group_order", spy)
            for day, columns in enumerate(batches, start=spec.day_lo):
                accumulator.fold_day(day, columns)
        state = accumulator._classifier.state_digest()
        return accumulator.result(), state, len(regrouped)

    def test_shared_and_general_grouping_fold_alike(self, monkeypatch):
        """Generated days are in time order with one session per
        (prefix, ASN), so they fold over the classifier's groups.  The
        same days with their rows stably moved into peer_id order keep
        every route's stream — the labels cannot change — but not the
        time order, so each is grouped again; both fold to the
        whole-batch digest and leave the classifier in one state."""
        from repro.workloads.generator import campaign_generator

        config = fast_config(days=3, shards=1)
        spec = config.shard_plan()[0]
        generator = campaign_generator(
            n_peers=config.n_peers,
            total_prefixes=config.total_prefixes,
            population_seed=spec.population_seed,
            generator_seed=spec.generator_seed,
        )
        days = [
            generator.day_columns(
                day, pair_fraction=1.0, attrs=AttributeTable()
            )
            for day in spec.days
        ]
        by_peer = [
            day.select(np.argsort(day.data["peer_id"], kind="stable"))
            for day in days
        ]
        assert all((np.diff(day.time) >= 0).all() for day in days)
        assert not any((np.diff(day.time) >= 0).all() for day in by_peer)

        shared, shared_state, regrouped = self.folded(
            config, spec, days, monkeypatch
        )
        assert regrouped == 0
        general, general_state, regrouped = self.folded(
            config, spec, by_peer, monkeypatch
        )
        assert regrouped == len(days)
        assert shared.digest() == general.digest()
        assert shared_state == general_state
        reference = whole_batch_partial(
            config, spec, RecordColumns.concat(days)
        )
        assert shared.digest() == reference.digest()

    #: (peer_id, peer_asn, net, plen) routes for the hand-built days.
    ROUTE_A = (1, 701, 10 << 24, 8)
    ROUTE_B = (2, 1239, 10 << 24, 8)
    ROUTE_C = (3, 3561, (172 << 24) | (16 << 16), 12)

    @pytest.mark.parametrize(
        "extra_routes, shuffled, regroups",
        [
            ((), False, False),
            # a second session of AS 701 announcing 10/8: two
            # classifier groups, one (prefix, ASN) pair
            (((4, 701, 10 << 24, 8),), False, True),
            # one peer id seen under two ASNs on one prefix: one
            # classifier group, two pairs
            (((1, 702, 10 << 24, 8),), False, True),
            ((), True, True),  # rows out of time order inside the day
            # one net at two lengths: the classifier leaves its packed
            # sort, its groups are still the pairs
            (((5, 7018, 10 << 24, 16),), False, False),
            # peer ids too far apart for the packed key's bit budget
            (((0xC0000001, 7018, 10 << 24, 8),), False, False),
        ],
        ids=["plain", "two-sessions-one-asn", "one-session-two-asns",
             "unordered", "mixed-lengths", "wide-peer-ids"],
    )
    def test_days_that_leave_the_shared_grouping(
        self, monkeypatch, extra_routes, shuffled, regroups
    ):
        """Each shape, in a stream that also holds an empty, a
        single-record and an all-withdraw day, folds to the whole-batch
        reference — over the classifier's groups when they are the
        day's pairs, over a second grouping when not."""
        rng = random.Random(len(extra_routes) + 2 * shuffled)
        table = AttributeTable()
        variants = [
            table.intern(PathAttributes(as_path=(701, 7), next_hop=1)),
            table.intern(PathAttributes(as_path=(701, 9, 7), next_hop=2)),
            table.intern(PathAttributes(as_path=(701, 7), next_hop=1, med=5)),
        ]
        routes = (self.ROUTE_A, self.ROUTE_B, self.ROUTE_C) + extra_routes
        kinds = ["busy", "empty", "single", "withdraws", "busy", "busy"]
        config = CampaignConfig(days=len(kinds), shards=1, seed=3, **FAST)
        spec = config.shard_plan()[0]

        def rows_of(day, kind):
            def at():
                return day * 86400.0 + rng.uniform(0.0, 86399.0)

            if kind == "empty":
                return []
            if kind == "single":
                return [(at(), *self.ROUTE_B, ANNOUNCE, variants[1])]
            if kind == "withdraws":
                rows = [
                    (at(), *route, WITHDRAW, int(NO_ATTR))
                    for route in routes
                    for _ in range(3)
                ]
            else:
                rows = [
                    (at(), *route, *rng.choice(
                        [(ANNOUNCE, v) for v in variants]
                        + [(WITHDRAW, int(NO_ATTR))]
                    ))
                    for route in routes
                    for _ in range(rng.randint(4, 15))
                ]
                rows.append((rows[0][0], *rows[0][1:]))  # a time tie
            rows.sort(key=lambda row: row[0])
            if shuffled:
                rng.shuffle(rows)
            return rows

        batches = [
            RecordColumns(
                np.array(rows_of(day, kind), dtype=RECORD_DTYPE), table
            )
            for day, kind in enumerate(kinds)
        ]
        streamed, _, regrouped = self.folded(
            config, spec, batches, monkeypatch
        )
        # Days of two rows or more regroup when the shape says so; the
        # empty day groups nothing and one row is always in order.
        assert regrouped == (4 if regroups else 0)
        reference = whole_batch_partial(
            config, spec, RecordColumns.concat(batches)
        )
        assert streamed.by_peer == reference.by_peer
        assert streamed.by_prefix == reference.by_prefix
        assert streamed.pairs_per_day == reference.pairs_per_day
        assert 1 not in streamed.pairs_per_day  # the empty day
        assert streamed.pairs_per_day[2] == 1  # the single record
        assert streamed.digest() == reference.digest()

    def test_batch_rewritten_after_classify_is_grouped_as_it_stands(
        self, monkeypatch
    ):
        """Classifying a batch elsewhere first, then rewriting its rows
        in place, leaves nothing behind for ``fold_day`` to reuse."""
        config = CampaignConfig(days=1, shards=1, seed=3, **FAST)
        spec = config.shard_plan()[0]
        rng = random.Random(4)
        rows = sorted(
            (rng.uniform(0.0, 86399.0), *route, WITHDRAW, int(NO_ATTR))
            for route in (self.ROUTE_A, self.ROUTE_B, self.ROUTE_C)
            for _ in range(20)
        )
        columns = RecordColumns(np.array(rows, dtype=RECORD_DTYPE))
        ColumnClassifier().classify(columns)
        data = columns.data
        data["peer_id"][::2] = 9
        data["peer_asn"][::2] = 9
        data["net"][::3] = 11 << 24
        streamed, _, regrouped = self.folded(
            config, spec, [columns], monkeypatch
        )
        assert regrouped == 0
        # 10/8, 172.16/12 and the rewritten 11/8, 11/12; the new peer.
        assert len(streamed.by_prefix) == 4 and 9 in streamed.by_peer
        reference = whole_batch_partial(config, spec, columns)
        assert streamed.digest() == reference.digest()

    def test_fold_day_rejects_out_of_order_and_misdated_days(self):
        """A repeated or earlier day would put negative gaps into the
        first Figure 8 bin; so would a batch dated to the wrong day."""
        config = fast_config(days=4, shards=1)
        spec = config.shard_plan()[0]

        def batch(time):
            row = (time, 1, 701, 10 << 24, 8, WITHDRAW, int(NO_ATTR))
            return RecordColumns(np.array([row], dtype=RECORD_DTYPE))

        accumulator = ShardAccumulator(config, spec)
        accumulator.fold_day(1, batch(86400.0 + 5.0))
        for day in (1, 0):  # repeated, then earlier
            with pytest.raises(ValueError, match="increasing order"):
                accumulator.fold_day(day, batch(day * 86400.0 + 9.0))
        with pytest.raises(ValueError, match="increasing order"):
            accumulator.fold_day(4, batch(4 * 86400.0))  # past the shard
        for time in (2 * 86400.0 - 1.0, 3 * 86400.0):
            with pytest.raises(ValueError, match="outside the day"):
                accumulator.fold_day(2, batch(time))
        # None of the rejected batches left a trace.
        accumulator.fold_day(2, batch(2 * 86400.0 + 5.0))
        result = accumulator.result()
        assert result.records == 2
        assert result.pairs_per_day == {1: 1, 2: 1}
        assert result.interarrival["TOTAL"].sum() == 1

    def test_single_worker_never_spawns_a_pool(self, monkeypatch):
        """The workers=1 fast path must not touch multiprocessing."""
        import repro.campaign.runner as runner_module

        def explode():
            raise AssertionError("workers=1 spawned a process pool")

        monkeypatch.setattr(runner_module, "_pool_context", explode)
        result = run_campaign(fast_config(), workers=1)
        assert result.complete

    def test_inline_handoff_round_trip_verifies_digest(self):
        from repro.campaign import HandoffError
        from repro.campaign.handoff import collect_partial, publish_partial

        config = fast_config(days=1, shards=1)
        spec = config.shard_plan()[0]
        partial = run_shard(config, spec)[0]
        handoff = publish_partial(
            spec, partial.to_payload(), partial.records, [], layout=None
        )
        assert handoff.transport == "inline"
        payload = collect_partial(handoff, None, spec)
        assert (
            PartialResult.from_payload(payload).digest()
            == partial.digest()
        )
        # A tampered digest must be caught, not merged.
        handoff.result_sha256 = "0" * 64
        with pytest.raises(HandoffError):
            collect_partial(handoff, None, spec)

    def test_file_handoff_catches_corrupted_result_file(self, tmp_path):
        from repro.campaign import CampaignLayout, HandoffError
        from repro.campaign.handoff import collect_partial, publish_partial

        config = fast_config(days=1, shards=1)
        spec = config.shard_plan()[0]
        partial = run_shard(config, spec)[0]
        layout = CampaignLayout(tmp_path)
        layout.prepare()
        handoff = publish_partial(
            spec, partial.to_payload(), partial.records, [], layout
        )
        assert handoff.transport == "file"
        assert collect_partial(handoff, layout, spec) == partial.to_payload()
        # Corrupt the result file between publish and collect.
        path = layout.result_path(spec)
        path.write_text(path.read_text().replace("1", "2", 1))
        with pytest.raises(HandoffError):
            collect_partial(handoff, layout, spec)

    def test_mid_shard_kill_resumes_at_first_unfinished_day(
        self, tmp_path
    ):
        """A run killed between day chunks leaves a partial chunk
        trail; the restarted shard reuses the finished days and
        generates only from the first unfinished one."""
        from repro.campaign import CampaignHooks, KillRun

        config = fast_config(
            days=4, shards=1, out=str(tmp_path / "camp")
        )
        spec = config.shard_plan()[0]

        def kill_after_day_1(spec_, day, how):
            if day == 1:
                raise KillRun("killed after day 1's chunk")

        with pytest.raises(KillRun):
            run_campaign(
                config, hooks=CampaignHooks(on_chunk=kill_after_day_1)
            )
        layout = CampaignLayout(config.out)
        # Days 0 and 1 spilled; the manifest never happened.
        assert list(layout.iter_completed([spec])) == []

        seen = []
        resumed = run_campaign(
            config,
            resume=True,
            hooks=CampaignHooks(
                on_chunk=lambda s, day, how: seen.append((day, how))
            ),
        )
        assert seen == [
            (0, "loaded"), (1, "loaded"),
            (2, "generated"), (3, "generated"),
        ]
        assert resumed.complete
        fresh = run_campaign(fast_config(days=4, shards=1))
        assert resumed.partial.digest() == fresh.partial.digest()

    def test_corrupt_chunk_regenerated_on_resume(self, tmp_path):
        from repro.campaign import CampaignHooks
        from repro.core.spill import ChunkCorrupt, verify_chunk

        config = fast_config(
            days=3, shards=1, out=str(tmp_path / "camp")
        )
        run_campaign(config)
        layout = CampaignLayout(config.out)
        spec = config.shard_plan()[0]
        chunk = layout.chunk_path(spec, 1)
        good = chunk.read_bytes()
        chunk.write_bytes(good[:100])
        with pytest.raises(ChunkCorrupt):
            verify_chunk(chunk)
        # The manifested shard no longer verifies; resume re-runs it,
        # reusing the intact chunks and regenerating the damaged day
        # to identical bytes.
        assert layout.load_shard(spec) is None
        seen = []
        resumed = run_campaign(
            config,
            resume=True,
            hooks=CampaignHooks(
                on_chunk=lambda s, day, how: seen.append((day, how))
            ),
        )
        assert seen == [(0, "loaded"), (1, "generated"), (2, "loaded")]
        assert resumed.shards_run == 1
        assert chunk.read_bytes() == good
        fresh = run_campaign(fast_config(days=3, shards=1))
        assert resumed.partial.digest() == fresh.partial.digest()

    def test_chunk_shrinking_mid_read_regenerated_on_resume(
        self, tmp_path, monkeypatch
    ):
        """A chunk truncated in place between its footer read and its
        digest pass (a bare OSError or a short read inside the reader)
        is one more corrupt chunk: the shard goes on, the day is
        generated again, to the same bytes."""
        import shutil

        from repro.campaign import CampaignHooks
        from repro.core import spill

        config = fast_config(days=3, shards=1, out=str(tmp_path / "camp"))
        run_campaign(config)
        layout = CampaignLayout(config.out)
        spec = config.shard_plan()[0]
        victim = layout.chunk_path(spec, 1)
        good = victim.read_bytes()
        # The state a kill leaves: day chunks on disk, nothing sealed.
        for name in ("manifest", "results"):
            shutil.rmtree(tmp_path / "camp" / name)
        real = spill._read_footer

        def then_shrink(fh, path):
            result = real(fh, path)
            if path == victim and victim.stat().st_size == len(good):
                os.truncate(victim, len(good) // 2)
            return result

        monkeypatch.setattr(spill, "_read_footer", then_shrink)
        seen = []
        resumed = run_campaign(
            config,
            resume=True,
            hooks=CampaignHooks(
                on_chunk=lambda s, day, how: seen.append((day, how))
            ),
        )
        assert seen == [(0, "loaded"), (1, "generated"), (2, "loaded")]
        assert victim.read_bytes() == good
        fresh = run_campaign(fast_config(days=3, shards=1))
        assert resumed.partial.digest() == fresh.partial.digest()

    @pytest.mark.slow
    @pytest.mark.skipif(
        not hasattr(os, "wait4"), reason="needs os.wait4 for child RSS"
    )
    def test_peak_rss_flat_across_horizon(self, tmp_path):
        """The flat-memory claim: tripling the horizon of a spilling
        campaign leaves the process's peak RSS within 1.25x, because
        only one day of columns is ever alive per worker.  Sized so a
        retained day batch shows: at this population a day is ~200k
        records, and the short run already pays the fixed start-up."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )

        def peak_rss(days: int) -> int:
            child = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "campaign",
                    "--days", str(days), "--shards", "4",
                    "--workers", "1", "--seed", "17",
                    "--peers", "30", "--prefixes", "4000",
                    "--out", str(tmp_path / f"days-{days}"),
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            assert child.returncode == 0
            return usage.ru_maxrss

        short, long = peak_rss(4), peak_rss(12)
        assert long <= 1.25 * short, (
            f"peak RSS grew {long / short:.2f}x from 4 to 12 days"
        )


def generated_days(config, spec):
    """The shard's days as ``run_shard`` generates them: one generator
    for the shard, a fresh attribute table a day."""
    generator = campaign_generator(
        n_peers=config.n_peers,
        total_prefixes=config.total_prefixes,
        population_seed=spec.population_seed,
        generator_seed=spec.generator_seed,
    )
    return [
        generator.day_columns(
            day,
            pair_fraction=config.pair_fraction,
            categories=config.category_set(),
            attrs=AttributeTable(),
        )
        for day in spec.days
    ]


def chunk_days(layout, spec):
    return [
        read_chunk(layout.chunk_path(spec, day)).columns for day in spec.days
    ]


def kill_state(config):
    """The state a kill leaves: day chunks on disk, nothing sealed."""
    for name in ("manifest", "results"):
        shutil.rmtree(os.path.join(config.out, name))


def missing_med(meta):
    """Bundle 0's MED lost: the column is one entry short."""
    meta["attrs"]["med"].pop(0)


def short_checkpoint(meta):
    meta["extra"]["generator_state"]["flags"].append(8)


#: How a resume can find a day's chunk, besides intact.
DAMAGE = {
    "deleted": lambda path: path.unlink(),
    "truncated": lambda path: os.truncate(path, path.stat().st_size // 2),
    "attribute-entry": lambda path: reseal_chunk(path, missing_med),
    "checkpoint": lambda path: reseal_chunk(path, short_checkpoint),
    "schema-1": lambda path: reseal_chunk(path, schema_one),
}


@pytest.fixture(scope="module")
def spilled_four_days(tmp_path_factory):
    """A spilled 4-day, 1-shard campaign, its chunks' bytes and the
    digest of the same campaign run in memory."""
    out = tmp_path_factory.mktemp("spilled") / "camp"
    config = fast_config(days=4, shards=1, out=str(out))
    run_campaign(config)
    kill_state(config)
    layout = CampaignLayout(config.out)
    spec = config.shard_plan()[0]
    chunks = {
        day: layout.chunk_path(spec, day).read_bytes() for day in spec.days
    }
    memory = run_campaign(fast_config(days=4, shards=1)).partial.digest()
    return out, chunks, memory


class TestRefoldFromChunks:
    """A resume folds decoded chunks: each footer decodes to the tuples
    the classifier compares, and a generator exists only for a day
    that must be generated."""

    def test_decoded_tables_match_generated_ones(self, tmp_path):
        config = fast_config(days=4, shards=2, out=str(tmp_path / "camp"))
        run_campaign(config)
        layout = CampaignLayout(config.out)
        for spec in config.shard_plan():
            generated = generated_days(config, spec)
            for gen, dec in zip(generated, chunk_days(layout, spec)):
                n = len(gen.attrs)
                assert (dec.data == gen.data).all()
                assert len(dec.attrs) == n
                assert [dec.attrs.tuple_of(i) for i in range(n)] == [
                    attribute_tuple(gen.attrs[i]) for i in range(n)
                ]
                assert dec.attrs.fwd_ids.tolist() == gen.attrs.fwd_ids.tolist()
                assert [dec.attrs[i] for i in range(n)] == [
                    gen.attrs[i] for i in range(n)
                ]
                assert [dec.attrs.intern(gen.attrs[i]) for i in range(n)] == (
                    list(range(n))
                )
                assert len(dec.attrs) == n
            # Decoded days concatenate as generated ones do: the first
            # day's decoded table takes in the others' bundles.
            whole_gen = RecordColumns.concat(generated)
            whole_dec = RecordColumns.concat(chunk_days(layout, spec))
            assert (whole_dec.data == whole_gen.data).all()
            assert whole_dec.to_records() == whole_gen.to_records()

    def test_classifier_state_alike_from_memory_and_from_chunks(
        self, tmp_path
    ):
        config = fast_config(days=4, shards=1, out=str(tmp_path / "camp"))
        run_campaign(config)
        spec = config.shard_plan()[0]
        generated = generated_days(config, spec)
        decoded = chunk_days(CampaignLayout(config.out), spec)
        in_memory, from_chunks = ColumnClassifier(), ColumnClassifier()
        policy_changes = 0
        for gen, dec in zip(generated, decoded):
            codes, policy = in_memory.classify(gen)
            decoded_codes, decoded_policy = from_chunks.classify(dec)
            assert (codes == decoded_codes).all()
            assert (policy == decoded_policy).all()
            assert in_memory.state_digest() == from_chunks.state_digest()
            policy_changes += int(policy.sum())
        assert policy_changes  # the carried tuples were compared in full
        one_batch = ColumnClassifier()
        one_batch.classify(RecordColumns.concat(chunk_days(
            CampaignLayout(config.out), spec
        )))
        assert one_batch.state_digest() == from_chunks.state_digest()

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    @pytest.mark.parametrize(
        "days", [(0,), (1,), (2,), (3,), (0, 1), (1, 2), (2, 3)],
        ids=lambda days: "-".join(map(str, days)),
    )
    def test_resume_regenerates_exactly_the_damaged_days(
        self, tmp_path, spilled_four_days, days, damage
    ):
        source, chunks, memory = spilled_four_days
        out = tmp_path / "camp"
        shutil.copytree(source, out)
        config = fast_config(days=4, shards=1, out=str(out))
        layout = CampaignLayout(config.out)
        spec = config.shard_plan()[0]
        for day in days:
            DAMAGE[damage](layout.chunk_path(spec, day))
        seen = []
        resumed = run_campaign(
            config,
            resume=True,
            hooks=CampaignHooks(
                on_chunk=lambda s, day, how: seen.append(how)
            ),
        )
        assert seen == [
            "generated" if day in days else "loaded" for day in spec.days
        ]
        assert resumed.partial.digest() == memory
        for day in spec.days:
            assert layout.chunk_path(spec, day).read_bytes() == chunks[day]

    def test_shard_whose_days_all_load_builds_no_generator(
        self, tmp_path, monkeypatch
    ):
        from repro.campaign import runner

        built = []
        real = runner.campaign_generator
        monkeypatch.setattr(
            runner,
            "campaign_generator",
            lambda *args: built.append(args) or real(*args),
        )
        config = fast_config(days=4, shards=2, out=str(tmp_path / "camp"))
        run_campaign(config)
        assert len(built) == 2
        built.clear()
        kill_state(config)
        resumed = run_campaign(config, resume=True)
        assert (resumed.shards_run, resumed.shards_loaded) == (2, 0)
        assert built == []
        # One lost day: one generator, built for that day's shard.
        spec = config.shard_plan()[1]
        CampaignLayout(config.out).chunk_path(spec, 3).unlink()
        kill_state(config)
        run_campaign(config, resume=True)
        assert built == [(
            config.n_peers, config.total_prefixes,
            spec.population_seed, spec.generator_seed,
        )]

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"net": [], "plen": [], "asn": [], "flags": []},
            {"net": [0], "plen": [8], "asn": [1], "flags": [8], "med": []},
            {"net": [0], "plen": [8], "asn": [1], "flags": [0, 0], "med": []},
            {"net": [1], "plen": [8], "asn": [1], "flags": [0], "med": []},
            {"net": [0], "plen": [33], "asn": [1], "flags": [0], "med": []},
            {"net": [0], "plen": [8], "asn": ["1"], "flags": [0], "med": []},
            {"net": [0], "plen": [8], "asn": [1], "flags": [True], "med": []},
            {"net": 0, "plen": [8], "asn": [1], "flags": [0], "med": []},
            # A day announces MED 20 or 40, nothing else.
            {"net": [0], "plen": [8], "asn": [1], "flags": [8], "med": [7]},
        ],
    )
    def test_malformed_checkpoint_cannot_be_restored(self, payload):
        assert not TraceGenerator.can_restore(payload)

    def test_checkpoint_round_trips_a_pair_no_peer_holds(self):
        """A checkpoint restores whatever pairs it names, as the
        oracle's per-pair objects do — here one prefix outside the
        population — and gives them back unchanged."""
        generator = campaign_generator(
            n_peers=4, total_prefixes=40, population_seed=2
        )
        (prefix, asn), *_ = generator.population.all_pairs
        payload = {
            "net": [prefix.network, 0x0A000000], "plen": [24, 8],
            "asn": [asn, asn], "flags": [3, 15], "med": [40],
        }
        assert TraceGenerator.can_restore(payload)
        ends = []
        for side in (generator, reference_twin(generator)):
            side.restore_state(payload)
            assert side.state_payload() == payload
            side.day_columns(1, pair_fraction=1.0)
            ends.append(side.state_payload())
        assert ends[0] == ends[1]

    def test_every_written_checkpoint_can_be_restored(self, tmp_path):
        config = fast_config(days=3, shards=1, out=str(tmp_path / "camp"))
        run_campaign(config)
        spec = config.shard_plan()[0]
        layout = CampaignLayout(config.out)
        for day in spec.days:
            state = read_chunk(layout.chunk_path(spec, day)).extra[
                "generator_state"
            ]
            assert state["med"]
            assert TraceGenerator.can_restore(state)

    def test_directory_on_a_chunk_path_aborts_naming_it(self, tmp_path):
        config = fast_config(days=2, shards=1, out=str(tmp_path / "camp"))
        spec = config.shard_plan()[0]
        squatter = CampaignLayout(config.out).chunk_path(spec, 1)
        squatter.mkdir(parents=True)
        with pytest.raises(OSError, match=re.escape(str(squatter))):
            run_campaign(config)
        assert list(squatter.parent.glob("*.tmp")) == []


class TestCampaignResult:
    def test_headline_analyses(self):
        config = fast_config()
        result = run_campaign(config)
        assert result.records == result.counts.total
        bins = result.bin_counts()
        assert len(bins) == config.total_bins
        assert bins.sum() == result.records
        daily = result.daily_totals()
        assert len(daily) == config.days
        assert daily.sum() == result.records
        assert 0.0 <= result.timer_mass <= 1.0
        fractions = result.affected_fractions()
        assert ((fractions > 0) & (fractions <= 1)).all()
