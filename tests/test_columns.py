"""Columnar tier equivalence tests.

The dependency-free oracle (``repro.verify.reference``) is the
reference implementation of the paper's taxonomy; the columnar tier
must reproduce it bit for bit.  These tests assert record-for-record
agreement on randomized mixed streams (including cross-batch state
carryover), lossless conversion, archive roundtrips, and equality of
every columnar analysis entry point with the obvious per-record
computation over the oracle's labels.
"""

import io
import random
import struct
from collections import Counter

import numpy as np
import pytest

from repro.analysis.distribution import daily_cdf
from repro.analysis.interarrival import histogram_counts, interarrival_times
from repro.analysis.timeseries import bin_records
from repro.bgp.attributes import AsPath, PathAttributes, attribute_tuple
from repro.collector import mrt
from repro.collector.log import FileLog
from repro.collector.mrt import (
    read_column_batches,
    read_records,
    write_columns,
    write_records,
)
from repro.collector.record import UpdateKind, UpdateRecord
from repro.core.columns import (
    NO_ATTR,
    RECORD_DTYPE,
    AttributeTable,
    ColumnClassifier,
    RecordColumns,
    classify_columns,
    decode_categories,
    route_groups,
    stable_argsort,
)
from repro.core.instability import (
    CategoryCounts,
    counts_by_peer_columns,
    counts_by_prefix_as_columns,
)
from repro.core.spill import read_chunk, write_chunk
from repro.core.taxonomy import UpdateCategory
from repro.net.prefix import Prefix
from repro.verify.golden import FUZZ_SEEDS
from repro.verify.reference import (
    reference_classify,
    reference_counts,
    reference_counts_by_peer,
    reference_interarrival_histogram,
)
from repro.verify.refgen import reference_twin
from repro.verify.streams import fuzz_stream
from repro.workloads.generator import TraceGenerator, campaign_generator

#: A small attribute vocabulary exercising every comparison outcome:
#: two distinct forwarding tuples, plus MED-only variants of each
#: (same forwarding, different full bundle — the policy-change case).
_PATH_A = AsPath((701, 3561))
_PATH_B = AsPath((1239, 3561))
ATTR_POOL = tuple(
    PathAttributes(as_path=path, next_hop=hop, med=med)
    for path, hop in ((_PATH_A, 1), (_PATH_B, 2))
    for med in (None, 10, 20)
)


def random_stream(rng, n, n_peers=3, n_prefixes=5):
    """A mixed announce/withdraw stream over a small route universe,
    dense enough that every taxonomy transition occurs."""
    prefixes = [Prefix((10 << 24) + (i << 8), 24) for i in range(n_prefixes)]
    records = []
    for i in range(n):
        peer = rng.randrange(n_peers)
        prefix = rng.choice(prefixes)
        if rng.random() < 0.55:
            records.append(
                UpdateRecord(
                    float(i), peer + 1, 700 + peer, prefix,
                    UpdateKind.ANNOUNCE, rng.choice(ATTR_POOL),
                )
            )
        else:
            records.append(
                UpdateRecord(
                    float(i), peer + 1, 700 + peer, prefix,
                    UpdateKind.WITHDRAW,
                )
            )
    return records


def assert_matches_oracle(batches):
    """Classify ``batches`` on the columnar tier (carrying state
    across batches) and compare every record's category and policy
    flag with the oracle's labels for the one continuous stream."""
    columnar = ColumnClassifier()
    table = AttributeTable()
    expected = iter(
        reference_classify([r for batch in batches for r in batch])
    )
    for batch in batches:
        columns = RecordColumns.from_records(batch, table)
        codes, policy = columnar.classify(columns)
        assert len(codes) == len(batch)
        for i, record in enumerate(batch):
            name, flag = next(expected)
            assert codes[i] == UpdateCategory[name].value, (i, record)
            assert policy[i] == flag, (i, record)


class TestClassifyEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_single_batch(self, seed):
        rng = random.Random(seed)
        assert_matches_oracle([random_stream(rng, 600)])

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_cross_batch_carryover(self, seed):
        """Day-by-day classification must equal one continuous stream:
        reachability, ever-announced and last-attribute state all carry
        across batch boundaries."""
        rng = random.Random(100 + seed)
        batches = [
            random_stream(rng, rng.randrange(1, 250)) for _ in range(5)
        ]
        assert_matches_oracle(batches)

    def test_tiny_batches(self):
        """One-record batches force every comparison through the carry
        path."""
        rng = random.Random(42)
        stream = random_stream(rng, 60)
        assert_matches_oracle([[r] for r in stream])

    def test_empty_batch(self):
        codes, policy = classify_columns(RecordColumns.empty())
        assert len(codes) == 0 and len(policy) == 0

    def test_generated_day_stream(self):
        """The statistical generator's output (the real workload)."""
        generator = TraceGenerator(seed=5)
        records = generator.day_columns(3, 0.02).to_records()
        assert len(records) > 100
        assert_matches_oracle([records])


class TestConversions:
    def test_roundtrip_lossless(self):
        rng = random.Random(1)
        stream = random_stream(rng, 400)
        columns = RecordColumns.from_records(stream)
        assert columns.to_records() == stream
        assert list(columns) == stream

    def test_withdrawals_use_sentinel(self):
        rng = random.Random(2)
        columns = RecordColumns.from_records(random_stream(rng, 100))
        withdraws = columns.data["kind"] == int(UpdateKind.WITHDRAW)
        attr_id = columns.data["attr_id"]
        assert (attr_id[withdraws] == NO_ATTR).all()
        assert (attr_id[~withdraws] < len(columns.attrs)).all()

    def test_concat_remaps_foreign_tables(self):
        rng = random.Random(3)
        a = RecordColumns.from_records(random_stream(rng, 150))
        b = RecordColumns.from_records(random_stream(rng, 150))
        merged = RecordColumns.concat([a, b])
        assert merged.to_records() == a.to_records() + b.to_records()

    def test_select_and_sort(self):
        rng = random.Random(4)
        stream = random_stream(rng, 200)
        columns = RecordColumns.from_records(stream)
        odd = columns.select(np.arange(len(columns)) % 2 == 1)
        assert odd.to_records() == stream[1::2]
        order = rng.sample(range(len(columns)), len(columns))
        shuffled = columns.select(np.asarray(order))
        assert shuffled.to_records() == [stream[i] for i in order]

    def test_decode_categories(self):
        assert decode_categories(
            np.array([c.value for c in UpdateCategory])
        ) == list(UpdateCategory)


class TestStableArgsort:
    """``stable_argsort`` is ``np.argsort(kind="stable")`` on any
    input, and its sorted values are ``values`` gathered by it bit for
    bit: through the early exits, the tie repair, and the fall-back
    for tie-heavy or NaN-carrying input."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(12)
        distinct = rng.permutation(50_000).astype(np.float64)
        sparse_ties = rng.random(50_000)
        sparse_ties[rng.integers(0, 50_000, 400)] = sparse_ties[7]
        sparse_ties[rng.integers(0, 50_000, 300)] = sparse_ties[11]
        with_nans = rng.random(1_000)
        with_nans[rng.integers(0, 1_000, 40)] = np.nan
        return {
            "empty": np.empty(0),
            "one row": np.array([3.5]),
            "a pair, tied": np.array([2.0, 2.0]),
            "all equal": np.full(5_000, 7.25),
            "few distinct values": rng.integers(0, 5, 50_000).astype(float),
            "50k rows, none tied": distinct,
            "50k rows, two runs of ties": sparse_ties,
            "many short runs": np.round(rng.random(50_000) * 5e5),
            "signed zeros": np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),
            "NaNs": with_nans,
            "integers": rng.integers(0, 1_000_000, 20_000),
        }

    @pytest.mark.parametrize("name", sorted(cases()))
    def test_equals_the_stable_sort(self, name):
        values = self.cases()[name]
        order, ranked = stable_argsort(values)
        expected = np.argsort(values, kind="stable")
        assert order.tolist() == expected.tolist()
        assert ranked.dtype == values.dtype
        assert ranked.tobytes() == values[expected].tobytes()


class TestRouteGroups:
    """``route_groups`` — the one grouping a day gets — is the stable
    ``(peer_id, net, plen)`` sort on every branch of the kernel, and a
    caller that hands it to ``classify`` changes no label."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(24)
        near = 0xC0000001  # an exchange LAN: ids 32 bits wide, 5 apart

        def batch(rows, peers, plens=(24,)):
            data = np.zeros(rows, dtype=RECORD_DTYPE)
            data["time"] = np.arange(rows)
            data["peer_id"] = rng.choice(peers, rows)
            data["peer_asn"] = data["peer_id"] % 97 + 1
            data["net"] = rng.integers(1, 41, rows) << 24
            data["plen"] = rng.choice(plens, rows)
            data["kind"] = rng.integers(1, 3, rows)
            data["attr_id"] = np.where(
                data["kind"] == 1, rng.integers(0, len(ATTR_POOL), rows),
                NO_ATTR,
            )
            return data

        return {
            "empty": batch(0, [1]),
            "one row": batch(1, [near]),
            "small ids, one pass": batch(3_000, [1, 2, 3, 9]),
            "wide ids close together, one pass": batch(
                3_000, near + np.arange(30)
            ),
            "ids spread over 32 bits, two passes": batch(
                3_000, [1, 2, near, 0xFFFFFFFF]
            ),
            "mixed prefix lengths, lexsort": batch(
                3_000, [1, near], plens=(8, 16, 24)
            ),
        }

    @pytest.mark.parametrize("name", sorted(cases()))
    def test_every_branch_is_the_stable_route_sort(self, name):
        data = self.cases()[name]
        order, starts, keys, plens = route_groups(data)
        expected = np.lexsort((data["plen"], data["net"], data["peer_id"]))
        assert order.tolist() == expected.tolist()
        routes = [
            (int(r["peer_id"]), int(r["net"]), int(r["plen"]))
            for r in data[expected]
        ]
        first = [
            i for i, route in enumerate(routes)
            if i == 0 or route != routes[i - 1]
        ]
        assert starts.tolist() == first
        assert [
            (key >> 32, key & 0xFFFFFFFF, plen)
            for key, plen in zip(keys.tolist(), plens.tolist())
        ] == [routes[i] for i in first]

    @pytest.mark.parametrize("name", sorted(cases()))
    def test_handed_in_groups_change_no_label(self, name):
        table = AttributeTable()
        for attrs in ATTR_POOL:
            table.intern(attrs)
        columns = RecordColumns(self.cases()[name], table)
        alone, handed = ColumnClassifier(), ColumnClassifier()
        for _ in range(2):  # the second pass classifies against carries
            codes, policy = alone.classify(columns)
            codes_h, policy_h = handed.classify(
                columns, route_groups(columns.data)
            )
            assert (codes == codes_h).all() and (policy == policy_h).all()
        assert alone.state_digest() == handed.state_digest()
        expected = reference_classify(columns.to_records() * 2)
        assert [
            (UpdateCategory(code).name, bool(flag))
            for code, flag in zip(codes.tolist(), policy.tolist())
        ] == expected[len(columns):]

    def test_mutated_batch_is_grouped_again(self):
        """Nothing about a batch's grouping outlives the call that
        computed it: rows rewritten in place after a classify are
        classified as they now stand."""
        rng = random.Random(9)
        columns = RecordColumns.from_records(random_stream(rng, 400))
        ColumnClassifier().classify(columns)
        columns.data["peer_id"][::3] += 1
        columns.data["net"][::5] = columns.data["net"][0]
        columns.data[:] = columns.data[::-1].copy()
        codes, policy = ColumnClassifier().classify(columns)
        assert [
            (UpdateCategory(code).name, bool(flag))
            for code, flag in zip(codes.tolist(), policy.tolist())
        ] == reference_classify(columns.to_records())


class TestOneKeyForm:
    """A bundle's one key is its ``attribute_tuple``: interning the
    object and interning the tuple give one id, whichever filled the
    table.  (Two key dicts would give a bundle two ids.)"""

    @staticmethod
    def table(filled, tmp_path):
        if filled == "footer":
            path = tmp_path / "vocabulary.rcol"
            write_chunk(path, RecordColumns.empty(
                TestOneKeyForm.table("objects", tmp_path)
            ))
            return read_chunk(path).columns.attrs
        table = AttributeTable()
        for attrs in ATTR_POOL:
            if filled == "objects":
                table.intern(attrs)
            else:
                table.intern_tuple(attribute_tuple(attrs))
        return table

    @pytest.mark.parametrize("filled", ["objects", "tuples", "footer"])
    def test_object_and_tuple_share_one_id(self, filled, tmp_path):
        table = self.table(filled, tmp_path)
        for i, attrs in enumerate(ATTR_POOL):
            assert table.intern(attrs) == i
            assert table.intern_tuple(attribute_tuple(attrs)) == i
        n = len(ATTR_POOL)
        # New bundles, each interned through one form and then the other.
        new = PathAttributes(as_path=_PATH_A, next_hop=1, med=30)
        assert table.intern(new) == n
        assert table.intern_tuple(attribute_tuple(new)) == n
        other = PathAttributes(as_path=AsPath((174,)), next_hop=3)
        assert table.intern_tuple(attribute_tuple(other)) == n + 1
        assert table.intern(other) == n + 1
        assert len(table) == n + 2
        assert table[n] == new and table[n + 1] == other
        # ``new`` only changes the MED of bundle 0: one forwarding id.
        assert table.fwd_ids.tolist() == [0, 0, 0, 1, 1, 1, 0, 2]


class TestGeneratorColumns:
    def test_day_columns_shares_attribute_table(self):
        generator = TraceGenerator(seed=9)
        table = AttributeTable()
        a = generator.day_columns(20, pair_fraction=0.03, attrs=table)
        b = generator.day_columns(21, pair_fraction=0.03, attrs=table)
        assert a.attrs is table and b.attrs is table

    def test_generated_day_builds_no_bundle_objects(self, tmp_path):
        """The generator interns plain tuples; its table holds exactly
        the bundles the scalar oracle interns as objects, and a chunk
        written from it is byte-identical to one written from the
        oracle's object table (spilled bytes are compared exactly)."""
        generator = campaign_generator(
            n_peers=8, total_prefixes=240, population_seed=3
        )
        reference = reference_twin(generator)
        for day in (0, 1, 2):
            got = generator.day_columns(day, 1.0)
            want = reference.day_columns(day, 1.0)
            table = got.attrs
            assert len(table) and table._attrs == [None] * len(table)
            assert [table.tuple_of(i) for i in range(len(table))] == [
                attribute_tuple(want.attrs[i]) for i in range(len(table))
            ]
            assert len(want.attrs) == len(table)
            got_path = tmp_path / f"generated-{day}.rcol"
            want_path = tmp_path / f"reference-{day}.rcol"
            write_chunk(got_path, got, extra={"day": day})
            write_chunk(want_path, want, extra={"day": day})
            assert got_path.read_bytes() == want_path.read_bytes()
            assert table._attrs == [None] * len(table)


class TestColumnarArchive:
    def test_write_columns_bytes_identical(self):
        rng = random.Random(5)
        stream = random_stream(rng, 300)
        columns = RecordColumns.from_records(stream)
        buf_columns, buf_records = io.BytesIO(), io.BytesIO()
        write_columns(buf_columns, columns)
        write_records(buf_records, stream)
        assert buf_columns.getvalue() == buf_records.getvalue()

    def test_read_column_batches_matches_streaming_reader(self):
        rng = random.Random(6)
        stream = random_stream(rng, 500)
        buf = io.BytesIO()
        write_records(buf, stream)
        buf.seek(0)
        expected = list(read_records(buf))
        buf.seek(0)
        batches = list(read_column_batches(buf, batch_size=64))
        assert all(len(b) <= 64 for b in batches)
        assert sum(len(b) for b in batches) == len(expected)
        merged = RecordColumns.concat(batches)
        assert merged.to_records() == expected

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_block_and_batch_size_never_show(self, seed, monkeypatch):
        """Wherever the block boundary cuts a frame (mid-header, on the
        header's last byte, mid-payload) and however rows are batched,
        the columnar reader's rows, attribute ids and table equal
        columnarizing the record reader's output, byte for byte."""
        buf = io.BytesIO()
        write_records(buf, fuzz_stream(seed).records)
        data = buf.getvalue()
        expected = RecordColumns.from_records(read_records(io.BytesIO(data)))
        for block in (1, 31, 32, 33, 4096):
            monkeypatch.setattr(mrt, "_BLOCK_BYTES", block)
            for batch_size in (1, 7, 8192):
                batches = list(
                    read_column_batches(io.BytesIO(data), batch_size)
                )
                assert [len(b) for b in batches[:-1]] == [batch_size] * (
                    len(batches) - 1
                )
                assert 0 < len(batches[-1]) <= batch_size
                assert b"".join(b.data.tobytes() for b in batches) == (
                    expected.data.tobytes()
                ), (block, batch_size)
                assert list(batches[0].attrs) == list(expected.attrs)

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_vectorized_writer_matches_record_writer(self, seed):
        """Headers packed a batch at a time are the bytes
        ``struct.pack`` writes one record at a time — on times whose
        microseconds round up into the next second too."""
        stream = fuzz_stream(seed).records
        spills = (0.9999996, 41.9999995, 1234.99999951, 7.0000004)
        prefix = Prefix(10 << 24, 8)
        stream += [
            UpdateRecord(time, 1, 701, prefix, UpdateKind.WITHDRAW)
            for time in spills
        ]
        buf_columns, buf_records = io.BytesIO(), io.BytesIO()
        write_columns(buf_columns, RecordColumns.from_records(stream))
        write_records(buf_records, stream)
        assert buf_columns.getvalue() == buf_records.getvalue()
        back = list(read_records(io.BytesIO(buf_columns.getvalue())))
        assert [r.time for r in back[-4:]] == [1.0, 42.0, 1235.0, 7.0]

    @pytest.mark.parametrize(
        "field, value",
        [("peer_asn", 70000), ("time", -1.0), ("time", 2.0**32),
         ("time", float("nan"))],
    )
    def test_vectorized_writer_refuses_what_struct_refuses(self, field, value):
        """NumPy casts wrap silently; the record writer's
        ``struct.pack`` raises — so must the batch writer."""
        columns = RecordColumns.from_records(
            random_stream(random.Random(1), 5)
        )
        columns.data[field][2] = value
        with pytest.raises(struct.error):
            write_columns(io.BytesIO(), columns)
        with pytest.raises((struct.error, ValueError)):
            write_records(io.BytesIO(), columns.to_records())

    def test_filelog_columnar_roundtrip(self, tmp_path):
        generator = TraceGenerator(seed=8)
        columns = generator.day_columns(2, pair_fraction=0.02)
        log = FileLog(tmp_path / "a.mrt")
        with log.writer() as writer:
            writer.extend_columns(columns)
            assert writer.count == len(columns)
        back = RecordColumns.concat(list(log.iter_column_batches()))
        # Streaming and columnar readers agree (times quantized to the
        # archive's microsecond resolution by both).
        assert back.to_records() == list(log)
        assert len(back) == len(columns)


class TestColumnarAnalyses:
    def _classified(self, seed=11, n=800):
        """A stream, its columnar classification, and the oracle's
        per-record category names."""
        rng = random.Random(seed)
        stream = random_stream(rng, n)
        columns = RecordColumns.from_records(stream)
        codes, policy = classify_columns(columns)
        names = [name for name, _ in reference_classify(stream)]
        return stream, columns, codes, policy, names

    @staticmethod
    def _pair_counts(stream, names, category):
        return Counter(
            (record.prefix, record.peer_asn)
            for record, name in zip(stream, names)
            if category is None or name == category.name
        )

    def test_category_counts_from_codes(self):
        stream, _, codes, policy, names = self._classified()
        result = CategoryCounts.from_codes(codes, policy)
        assert {
            **result.nonzero_dict(),
            "policy_changes": result.policy_changes,
        } == reference_counts(stream)
        tally = Counter(names)
        assert result.instability == (
            tally["AADIFF"] + tally["WADIFF"] + tally["WADUP"]
        )
        assert result.pathological == tally["AADUP"] + tally["WWDUP"]

    def test_counts_by_peer_columns(self):
        stream, columns, codes, policy, _ = self._classified()
        expected = reference_counts_by_peer(stream)
        result = counts_by_peer_columns(columns, codes, policy)
        assert set(result) == set(expected)
        for asn, counts in result.items():
            assert {
                **counts.nonzero_dict(),
                "policy_changes": counts.policy_changes,
            } == expected[asn]

    @pytest.mark.parametrize(
        "category", [None, UpdateCategory.AADUP, UpdateCategory.WWDUP]
    )
    def test_counts_by_prefix_as_columns(self, category):
        stream, columns, codes, _, names = self._classified()
        assert counts_by_prefix_as_columns(
            columns, codes, category
        ) == self._pair_counts(stream, names, category)

    def test_daily_cdf_columns(self):
        stream, columns, codes, _, names = self._classified()
        per_pair = self._pair_counts(stream, names, UpdateCategory.AADUP)
        total = sum(per_pair.values())
        thresholds = sorted(set(per_pair.values()))
        curve = daily_cdf(columns, codes, UpdateCategory.AADUP)
        assert curve.thresholds == thresholds
        assert curve.cumulative == [
            sum(c for c in per_pair.values() if c <= k) / total
            for k in thresholds
        ]
        assert curve.total_events == total

    def test_interarrival_columns(self):
        stream, columns, codes, _, names = self._classified()
        for category in (None, UpdateCategory.AADUP):
            by_pair = {}
            for record, name in zip(stream, names):
                if category is None or name == category.name:
                    by_pair.setdefault((record.prefix, record.peer_asn), []).append(
                        record.time
                    )
            expected = sorted(
                later - earlier
                for times in by_pair.values()
                for earlier, later in zip(sorted(times), sorted(times)[1:])
            )
            gaps = interarrival_times(columns, codes, category)
            assert np.sort(gaps).tolist() == expected
            assert histogram_counts(
                gaps
            ).tolist() == reference_interarrival_histogram(
                stream, category and category.name
            )

    def test_bin_records_columnar(self):
        stream, columns, _, _, _ = self._classified()
        streaming = bin_records(stream, bin_width=60.0)
        assert (bin_records(columns, bin_width=60.0) == streaming).all()
        times = np.array([r.time for r in stream])
        assert (bin_records(times, bin_width=60.0) == streaming).all()
