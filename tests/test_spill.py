"""Tests for the columnar spill-chunk format (repro.core.spill).

The chunk is the out-of-core campaign's unit of durable state, so the
properties under test are the ones resume leans on: lossless
dtype/attribute round-trips, deterministic bytes, zero-copy reads,
and loud failure (ChunkCorrupt) for every flavor of damage.
"""

import errno
import hashlib
import json
import os

import numpy as np
import pytest

from repro.bgp.attributes import (
    AsPath,
    Origin,
    PathAttributes,
    attribute_tuple,
)
from repro.core.columns import (
    NO_ATTR,
    RECORD_DTYPE,
    AttributeTable,
    RecordColumns,
)
from repro.core import spill
from repro.core.spill import (
    CHUNK_END_MAGIC,
    CHUNK_MAGIC,
    ChunkCorrupt,
    attributes_from_payload,
    attributes_payload,
    read_chunk,
    verify_chunk,
    write_chunk,
)

from .helpers import reseal_chunk, schema_one


def sample_columns(rows: int = 64, seed: int = 3) -> RecordColumns:
    rng = np.random.default_rng(seed)
    table = AttributeTable()
    attr_ids = [
        table.intern(
            PathAttributes(
                as_path=AsPath((701, 1239 + i)),
                next_hop=7 + i,
                med=None if i % 2 else 20,
                local_pref=None if i % 3 else 120,
                communities=frozenset({0xFFFFFF01}) if i % 2 else frozenset(),
            )
        )
        for i in range(4)
    ]
    data = np.empty(rows, dtype=RECORD_DTYPE)
    data["time"] = np.sort(rng.uniform(0, 86400, rows))
    data["peer_id"] = rng.integers(0, 8, rows)
    data["peer_asn"] = rng.integers(100, 200, rows)
    data["net"] = rng.integers(0, 2**24, rows)
    data["plen"] = 24
    data["kind"] = rng.integers(1, 3, rows)
    announced = data["kind"] == 1
    data["attr_id"] = NO_ATTR
    data["attr_id"][announced] = rng.choice(attr_ids, int(announced.sum()))
    return RecordColumns(data, table)


class TestRoundTrip:
    def test_data_attrs_and_extra_survive(self, tmp_path):
        columns = sample_columns()
        extra = {"day": 12, "campaign": "abc", "state": {"net": [1, 2]}}
        path = tmp_path / "day-0012.rcol"
        info = write_chunk(path, columns, extra=extra)
        assert info.rows == len(columns)

        chunk = read_chunk(path)
        assert chunk.info.sha256 == info.sha256
        assert chunk.extra == extra
        assert (chunk.columns.data == columns.data).all()
        assert len(chunk.columns.attrs) == len(columns.attrs)
        for i in range(len(columns.attrs)):
            assert chunk.columns.attrs[i] == columns.attrs[i]

    def test_read_is_memory_mapped(self, tmp_path):
        path = tmp_path / "c.rcol"
        write_chunk(path, sample_columns())
        data = read_chunk(path).columns.data
        base = data
        while getattr(base, "base", None) is not None:
            if isinstance(base, np.memmap):
                break
            base = base.base
        assert isinstance(base, np.memmap)
        assert not data.flags.writeable

    def test_chunk_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.rcol", tmp_path / "b.rcol"
        info_a = write_chunk(a, sample_columns(), extra={"day": 1})
        info_b = write_chunk(b, sample_columns(), extra={"day": 1})
        assert a.read_bytes() == b.read_bytes()
        assert info_a.sha256 == info_b.sha256

    def test_empty_chunk(self, tmp_path):
        path = tmp_path / "empty.rcol"
        info = write_chunk(path, RecordColumns.empty())
        assert info.rows == 0
        chunk = read_chunk(path)
        assert len(chunk.columns) == 0
        assert verify_chunk(path).sha256 == info.sha256

    def test_attribute_codec_covers_every_field(self):
        attrs = PathAttributes(
            as_path=AsPath((701, 1239, 3561)),
            next_hop=0x0A000001,
            origin=Origin.EGP,
            med=30,
            local_pref=200,
            communities=frozenset({0xFFFFFF01, 0xFFFFFF02}),
            atomic_aggregate=True,
            aggregator=(701, 42),
        )
        plain = PathAttributes(next_hop=7)  # every optional field empty
        table = AttributeTable()
        table.intern(plain)
        table.intern(attrs)
        decoded = attributes_from_payload(attributes_payload(table))
        assert [decoded.tuple_of(i) for i in range(2)] == [
            attribute_tuple(plain), attribute_tuple(attrs)
        ]
        assert decoded[0] == plain
        assert decoded[1] == attrs
        assert decoded.fwd_ids.tolist() == table.fwd_ids.tolist()

    def test_empty_table_is_empty_columns(self):
        payload = attributes_payload(AttributeTable())
        assert payload == {name: [] for name in payload}
        assert len(payload) == 10
        assert len(attributes_from_payload(payload)) == 0

    def test_all_withdraw_day(self, tmp_path):
        """Rows but no announcement: an empty attribute table."""
        data = plain_columns().data.copy()
        data["kind"] = 2
        data["attr_id"] = NO_ATTR
        path = tmp_path / "withdrawals.rcol"
        info = write_chunk(path, RecordColumns(data), extra={"day": 3})
        chunk = read_chunk(path)
        assert chunk.info.sha256 == info.sha256
        assert (chunk.columns.data == data).all()
        assert len(chunk.columns.attrs) == 0
        assert verify_chunk(path).rows == len(data)


def split_chunk(raw: bytes):
    """(data segment, footer bytes) of a well-formed chunk file."""
    footer_len = int.from_bytes(raw[-16:-8], "little")
    footer_off = len(raw) - 16 - footer_len
    return raw[len(CHUNK_MAGIC):footer_off], raw[footer_off:-16]


def join_chunk(data: bytes, footer: bytes) -> bytes:
    return (
        CHUNK_MAGIC + data + footer
        + len(footer).to_bytes(8, "little") + CHUNK_END_MAGIC
    )


def set_entry(attrs, column, index, value):
    attrs[column][index] = value


def append_bundle(attrs, i):
    """Append a copy of bundle ``i`` to the attribute columns."""
    for name in ("as_path", "communities"):
        lengths = attrs[f"{name}_len"]
        start = sum(lengths[:i])
        attrs[name].extend(attrs[name][start:start + lengths[i]])
    for name, column in attrs.items():
        if name not in ("as_path", "communities"):
            column.append(column[i])


def drop_path(attrs):
    """Bundle 1's AS path lost: its run of the pool and its length."""
    del attrs["as_path"][2:]
    attrs["as_path_len"].pop(1)


class TestCorruption:
    def test_truncation_detected(self, tmp_path):
        """Every proper prefix of a chunk is corrupt, not just a few."""
        path = tmp_path / "c.rcol"
        write_chunk(path, sample_columns())
        good = path.read_bytes()
        for keep in range(len(good)):
            path.write_bytes(good[:keep])
            with pytest.raises(ChunkCorrupt):
                read_chunk(path)
        path.write_bytes(good)
        assert verify_chunk(path).rows == 64

    def test_every_bit_flip_region_detected(self, tmp_path):
        """Every bit of the magic, the footer and the trailer, and of
        the first and the last record: no single flip is read back."""
        path = tmp_path / "c.rcol"
        write_chunk(path, sample_columns())
        good = path.read_bytes()
        data, footer = split_chunk(good)
        record = RECORD_DTYPE.itemsize
        data_end = len(CHUNK_MAGIC) + len(data)
        assert len(good) == data_end + len(footer) + 16
        offsets = [
            *range(len(CHUNK_MAGIC)),
            *range(len(CHUNK_MAGIC), len(CHUNK_MAGIC) + record),
            *range(data_end - record, len(good)),
        ]
        for offset in offsets:
            for bit in range(8):
                bad = bytearray(good)
                bad[offset] ^= 1 << bit
                path.write_bytes(bytes(bad))
                with pytest.raises(ChunkCorrupt):
                    read_chunk(path)
        path.write_bytes(good)
        assert verify_chunk(path).rows == 64

    def test_garbage_and_missing_files_detected(self, tmp_path):
        path = tmp_path / "c.rcol"
        path.write_bytes(b"{not a chunk at all}")
        with pytest.raises(ChunkCorrupt):
            verify_chunk(path)
        with pytest.raises(ChunkCorrupt):
            verify_chunk(tmp_path / "absent.rcol")

    def test_stale_footer_metadata_detected(self, tmp_path):
        """Editing footer metadata (even keeping valid JSON) breaks
        the digest, which covers meta as well as data."""
        path = tmp_path / "c.rcol"
        write_chunk(path, sample_columns(), extra={"day": 1})
        good = path.read_bytes()
        bad = good.replace(b'"day":1', b'"day":2')
        assert bad != good
        path.write_bytes(bad)
        with pytest.raises(ChunkCorrupt):
            read_chunk(path)

    @pytest.mark.parametrize(
        "damage",
        [
            # Bundle 1's field lost: its column is one entry short.
            lambda a: a["med"].pop(1),
            drop_path,
            lambda a: set_entry(a, "origin", 1, 3),
            lambda a: set_entry(a, "as_path", 3, 0),
            lambda a: set_entry(a, "as_path", 3, 65536),
            lambda a: set_entry(a, "as_path", 3, "3561"),
            lambda a: set_entry(a, "as_path", 3, None),
            lambda a: set_entry(a, "next_hop", 1, "seven"),
            lambda a: set_entry(a, "med", 1, [20]),
            lambda a: set_entry(a, "aggregator", 1, [701]),
            lambda a: a.update(communities=7),
            lambda a: set_entry(a, "origin", 1, 1e400),
            lambda a: a.clear(),
            # Each of these passed the row-wise decoder of schema 1.
            lambda a: set_entry(a, "next_hop", 0, "7"),
            lambda a: set_entry(a, "next_hop", 0, 7.9),
            lambda a: set_entry(a, "next_hop", 0, 2**32),
            lambda a: set_entry(a, "next_hop", 0, -1),
            lambda a: set_entry(a, "med", 0, 2**32),
            lambda a: set_entry(a, "aggregator", 1, [701, 2**32]),
            lambda a: set_entry(a, "aggregator", 1, [0, 42]),
            lambda a: set_entry(a, "aggregator", 1, [70000, 42]),
            lambda a: set_entry(a, "as_path", 0, True),
            lambda a: set_entry(a, "origin", 0, True),
            lambda a: set_entry(a, "med", 0, True),
            lambda a: set_entry(a, "atomic_aggregate", 0, "no"),
            lambda a: a.update(communities=[0xFFFFFF01, 5]),
            lambda a: a.update(communities=[5, 5]),
        ],
        ids=[
            "no-med", "no-as-path", "origin-3", "asn-0", "asn-65536",
            "as-path-string", "asn-null", "next-hop-string", "med-list",
            "aggregator-short", "communities-int", "origin-inf", "empty",
            "next-hop-digit-string", "next-hop-float", "next-hop-2**32",
            "next-hop-negative", "med-2**32", "aggregator-address-2**32",
            "aggregator-asn-0", "aggregator-asn-70000", "asn-true",
            "origin-true", "med-true", "atomic-aggregate-string",
            "communities-unsorted", "communities-repeated",
        ],
    )
    def test_malformed_attribute_entry_is_corrupt(self, tmp_path, damage):
        """A digest-valid chunk whose attribute columns hold one entry
        that is not a bundle's field: ChunkCorrupt, never the decoder's
        own KeyError or TypeError (which would abort a resumed shard),
        and never a bundle other than the one on disk."""
        path = tmp_path / "c.rcol"
        write_chunk(path, plain_columns())
        reseal_chunk(path, lambda meta: damage(meta["attrs"]))
        with pytest.raises(ChunkCorrupt, match="malformed attribute table"):
            read_chunk(path)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda attrs: append_bundle(attrs, 0),
            lambda attrs: set_entry(attrs, "next_hop", 0, None),
            lambda attrs: set_entry(attrs, "origin", 0, [0]),
        ],
        ids=["repeated-bundle", "null-entry", "list-entry"],
    )
    def test_malformed_attribute_table_is_corrupt(self, tmp_path, damage):
        path = tmp_path / "c.rcol"
        write_chunk(path, plain_columns())
        reseal_chunk(path, lambda meta: damage(meta["attrs"]))
        with pytest.raises(ChunkCorrupt, match="malformed attribute table"):
            read_chunk(path)

    def test_row_count_true_is_corrupt(self, tmp_path):
        """A bool is an int, and ``True * 26`` bytes is one record: a
        one-row chunk resealed with ``"rows": true`` fails on the count,
        not inside ``np.memmap``."""
        plain = plain_columns()
        path = tmp_path / "c.rcol"
        write_chunk(path, RecordColumns(plain.data[:1], plain.attrs))
        reseal_chunk(path, lambda meta: meta.update(rows=True))
        with pytest.raises(ChunkCorrupt, match="bad row count"):
            read_chunk(path)
        with pytest.raises(ChunkCorrupt, match="bad row count"):
            verify_chunk(path)

    def test_schema_one_chunk_is_corrupt(self, tmp_path):
        """The row-wise footer of schema 1 has no reader: the day
        regenerates."""
        path = tmp_path / "c.rcol"
        write_chunk(path, plain_columns(), extra={"day": 1})
        reseal_chunk(path, schema_one)
        with pytest.raises(ChunkCorrupt, match="schema 1 != 2"):
            read_chunk(path)
        with pytest.raises(ChunkCorrupt, match="schema 1 != 2"):
            verify_chunk(path)

    def test_resealed_chunk_is_otherwise_accepted(self, tmp_path):
        """The damage tests above fail on the damage, not the seal."""
        path = tmp_path / "c.rcol"
        info = write_chunk(path, plain_columns(), extra={"day": 1})
        reseal_chunk(path, lambda meta: None)
        assert read_chunk(path).info.sha256 == info.sha256


class TestDecodedTable:
    """The footer decodes to canonical tuples; objects come later."""

    def test_tuples_fwd_ids_and_lazy_objects(self, tmp_path):
        columns = plain_columns()
        path = tmp_path / "c.rcol"
        write_chunk(path, columns)
        table = read_chunk(path).columns.attrs
        assert table._attrs == [None, None]  # nothing built yet
        for i in range(len(columns.attrs)):
            assert table.tuple_of(i) == attribute_tuple(columns.attrs[i])
        assert table.fwd_ids.tolist() == columns.attrs.fwd_ids.tolist()
        assert table._attrs == [None, None]
        assert table[1] == columns.attrs[1]
        assert table[1] is table[1]
        assert table._attrs[0] is None

    def test_interning_into_a_decoded_table(self, tmp_path):
        columns = plain_columns()
        path = tmp_path / "c.rcol"
        write_chunk(path, columns)
        table = read_chunk(path).columns.attrs
        assert table.intern(columns.attrs[1]) == 1
        assert table.intern(columns.attrs[0]) == 0
        new = PathAttributes(as_path=AsPath((3561,)), next_hop=7)
        assert table.intern(new) == 2
        assert table.tuple_of(2) == attribute_tuple(new)
        # Same next hop and path as bundle 0: the same forwarding id.
        assert table.fwd_ids.tolist() == [0, 1, 2]
        assert table.intern(
            PathAttributes(as_path=AsPath((701, 1239)), next_hop=7)
        ) == 3
        assert table.fwd_ids.tolist() == [0, 1, 2, 0]

    def test_repeated_tuple_is_refused(self):
        bundle = attribute_tuple(PathAttributes(next_hop=1))
        with pytest.raises(ValueError):
            AttributeTable.from_tuples([bundle, bundle])


class TestWriteFailures:
    """A chunk that cannot be written leaves no temp file behind and
    says which chunk it was."""

    def test_directory_squatting_on_the_chunk_path(self, tmp_path):
        path = tmp_path / "day-0001.rcol"
        path.mkdir()
        with pytest.raises(OSError, match="day-0001.rcol"):
            write_chunk(path, sample_columns())
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_disk_full_during_the_write(self, tmp_path, monkeypatch):
        real_open = open

        class FullDisk:
            """A file whose second write finds the disk full."""

            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.writes += 1
                if self.writes == 2:
                    self.fh.write(chunk[:100])
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(chunk)

        monkeypatch.setattr(
            spill, "open", lambda p, mode: FullDisk(real_open(p, mode)),
            raising=False,
        )
        path = tmp_path / "day-0001.rcol"
        with pytest.raises(OSError, match="day-0001.rcol") as caught:
            write_chunk(path, sample_columns())
        assert caught.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []


def plain_columns() -> RecordColumns:
    """A batch built without a random generator, so its chunk's bytes
    are a constant of the format."""
    table = AttributeTable()
    first = table.intern(
        PathAttributes(as_path=AsPath((701, 1239)), next_hop=7, med=20)
    )
    second = table.intern(
        PathAttributes(
            as_path=AsPath((701, 3561, 42)),
            next_hop=9,
            origin=Origin.INCOMPLETE,
            local_pref=120,
            communities=frozenset({0xFFFFFF01, 5}),
            atomic_aggregate=True,
            aggregator=(701, 42),
        )
    )
    data = np.zeros(6, dtype=RECORD_DTYPE)
    data["time"] = np.arange(6) * 30.5
    data["peer_id"] = (1, 2, 1, 2, 1, 2)
    data["peer_asn"] = (701, 1239, 701, 1239, 701, 1239)
    data["net"] = 10 << 24
    data["plen"] = 8
    data["kind"] = (1, 1, 2, 1, 1, 2)
    data["attr_id"] = (first, second, NO_ATTR, first, second, NO_ATTR)
    return RecordColumns(data, table)


def column_mutations():
    """Structural damage to each attribute column, by test id."""
    cases = {"extra-column": lambda a: a.update(mp_reach=[])}
    for name in ATTRIBUTE_COLUMNS:
        cases.update({
            f"{name}-missing": lambda a, n=name: a.pop(n),
            f"{name}-dict": lambda a, n=name: a.update(
                {n: {str(i): v for i, v in enumerate(a[n])}}
            ),
            f"{name}-string": lambda a, n=name: a.update(
                {n: json.dumps(a[n])}
            ),
            f"{name}-null": lambda a, n=name: a.update({n: None}),
            f"{name}-one-short": lambda a, n=name: a[n].pop(),
            f"{name}-one-long": lambda a, n=name: a[n].append(a[n][-1]),
        })
    for name in ("as_path_len", "communities_len"):
        cases.update({
            f"{name}-sums-past-pool": lambda a, n=name: bump(a[n], -1, 1),
            f"{name}-sums-short": lambda a, n=name: bump(a[n], -1, -1),
            # Two bundles, the lengths still summing to the pool.
            f"{name}-negative": lambda a, n=name: a.update(
                {n: [-1, sum(a[n]) + 1]}
            ),
            f"{name}-2**63": lambda a, n=name: set_entry(a, n, -1, 2**63),
            f"{name}-2**63-summing-right": lambda a, n=name: (
                bump(a[n], 0, 2**63), bump(a[n], -1, -(2**63))
            ),
        })
    return cases


def bump(column, index, by):
    column[index] += by


ATTRIBUTE_COLUMNS = (
    "aggregator", "as_path", "as_path_len", "atomic_aggregate",
    "communities", "communities_len", "local_pref", "med", "next_hop",
    "origin",
)
COLUMN_MUTATIONS = column_mutations()


class TestColumnMutations:
    """Every structural damage to a resealed schema-2 footer's columns
    is ChunkCorrupt, never another exception; a claimed length is
    checked against its pool, never allocated."""

    def test_columns_are_the_footer_layout(self, tmp_path):
        path = tmp_path / "c.rcol"
        write_chunk(path, plain_columns())
        attrs = json.loads(split_chunk(path.read_bytes())[1])["attrs"]
        assert tuple(attrs) == ATTRIBUTE_COLUMNS
        assert attrs["as_path"] == [701, 1239, 701, 3561, 42]
        assert attrs["as_path_len"] == [2, 3]
        assert attrs["communities"] == [5, 0xFFFFFF01]
        assert attrs["communities_len"] == [0, 2]
        assert attrs["aggregator"] == [None, [701, 42]]

    @pytest.mark.parametrize("damage", sorted(COLUMN_MUTATIONS))
    def test_damaged_column_is_corrupt(self, tmp_path, damage):
        path = tmp_path / "c.rcol"
        write_chunk(path, plain_columns())
        mutate = COLUMN_MUTATIONS[damage]
        reseal_chunk(path, lambda meta: mutate(meta["attrs"]))
        with pytest.raises(ChunkCorrupt, match="malformed attribute table"):
            read_chunk(path)


class TestFooterIsHashedAsWritten:
    """The digest covers the footer's bytes on disk, so the only footer
    a reader accepts is the one :func:`write_chunk` emits."""

    #: sha256 of the file / the chunk digest ``write_chunk`` produces
    #: for ``plain_columns()`` under chunk schema 2 (a constant of the
    #: format: hashing the footer as written did not move it).
    FILE_SHA256 = (
        "58bfab9e7a54e37cfdd685dcbe96465ea2094461d682bc8fded1219abb1bd0a6"
    )
    CHUNK_SHA256 = (
        "e2e128bfde41ccd43b9dc276a8a839f8a5e3141bd307f363c39ddc47a64a9cd6"
    )

    def test_written_bytes_have_not_moved(self, tmp_path):
        path = tmp_path / "c.rcol"
        info = write_chunk(path, plain_columns(), extra={"day": 1})
        raw = path.read_bytes()
        assert info.sha256 == self.CHUNK_SHA256
        assert hashlib.sha256(raw).hexdigest() == self.FILE_SHA256
        # ... and are accepted as they stand.
        assert verify_chunk(path).sha256 == info.sha256
        assert read_chunk(path).info.sha256 == info.sha256
        # The footer is canonical JSON ending in the digest.
        data, footer = split_chunk(raw)
        parsed = json.loads(footer)
        assert list(parsed)[-1] == "sha256"
        assert footer == json.dumps(
            parsed, sort_keys=True, separators=(",", ":")
        ).encode()
        meta = dict(parsed)
        del meta["sha256"]
        old_way = hashlib.sha256(
            data
            + json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
        )
        assert old_way.hexdigest() == info.sha256

    @pytest.mark.parametrize(
        "respell",
        [
            lambda footer: json.dumps(footer, sort_keys=True),
            lambda footer: json.dumps(footer, sort_keys=True, indent=1),
            lambda footer: json.dumps(
                dict(reversed(list(footer.items()))), separators=(",", ":")
            ),
            lambda footer: json.dumps(
                {
                    key: footer[key]
                    for key in ("dtype", "attrs", "rows", "extra",
                                "schema", "sha256")
                },
                separators=(",", ":"),
            ),
        ],
        ids=["spaces", "indented", "digest-first", "digest-last-reordered"],
    )
    def test_respelled_footer_rejected(self, tmp_path, respell):
        """Same JSON value, same digest field (it was taken over the
        re-canonicalised value, which did not change), other bytes:
        accepted by a reader that re-encodes what it parsed, rejected
        by one that hashes what is on disk."""
        path = tmp_path / "c.rcol"
        write_chunk(path, plain_columns(), extra={"day": 1})
        data, footer = split_chunk(path.read_bytes())
        respelled = respell(json.loads(footer)).encode()
        assert respelled != footer
        assert json.loads(respelled) == json.loads(footer)
        path.write_bytes(join_chunk(data, respelled))
        with pytest.raises(ChunkCorrupt):
            verify_chunk(path)
        with pytest.raises(ChunkCorrupt):
            read_chunk(path)

    def test_digest_not_ascii_is_corrupt(self, tmp_path):
        path = tmp_path / "c.rcol"
        write_chunk(path, plain_columns())
        data, footer = split_chunk(path.read_bytes())
        lone = footer[:-3] + b'\\ud800"}'  # valid JSON, a lone surrogate
        assert json.loads(lone)["sha256"].endswith("\ud800")
        path.write_bytes(join_chunk(data, lone))
        with pytest.raises(ChunkCorrupt):
            read_chunk(path)


class TestFileSystemFaults:
    """Whatever the file system does between a chunk's open and its
    mapping is ChunkCorrupt (so the day is regenerated), never a bare
    OSError (which aborts the shard)."""

    def test_not_a_regular_readable_file(self, tmp_path):
        folder = tmp_path / "dir.rcol"
        folder.mkdir()
        for path in (folder, tmp_path / "absent.rcol"):
            with pytest.raises(ChunkCorrupt):
                read_chunk(path)
            with pytest.raises(ChunkCorrupt):
                verify_chunk(path)

    @pytest.mark.parametrize("stage", ["_read_footer", "_verify_digest"])
    @pytest.mark.parametrize("lost", [1, 26, 1000, 64 * 26])
    def test_chunk_shrinks_mid_read(self, tmp_path, monkeypatch, stage, lost):
        """Truncated in place, ``lost`` bytes into the data segment,
        after the footer was read — or after the digest passed and
        before the data is mapped."""
        path = tmp_path / "c.rcol"
        write_chunk(path, sample_columns())
        data, _ = split_chunk(path.read_bytes())
        real = getattr(spill, stage)

        def then_shrink(*args):
            result = real(*args)
            os.truncate(path, len(CHUNK_MAGIC) + len(data) - lost)
            return result

        monkeypatch.setattr(spill, stage, then_shrink)
        with pytest.raises(ChunkCorrupt):
            read_chunk(path)

    def test_chunk_swapped_for_a_directory_mid_read(
        self, tmp_path, monkeypatch
    ):
        """One handle per chunk: a path that changes hands after the
        open is not looked at again, so the read finishes on the bytes
        it verified."""
        path = tmp_path / "c.rcol"
        columns = sample_columns()
        info = write_chunk(path, columns)
        real = spill._read_footer

        def then_swap(*args):
            result = real(*args)
            path.unlink()
            path.mkdir()
            return result

        monkeypatch.setattr(spill, "_read_footer", then_swap)
        chunk = read_chunk(path)
        assert chunk.info.sha256 == info.sha256
        assert (chunk.columns.data == columns.data).all()
        with pytest.raises(ChunkCorrupt):  # the next open sees it
            read_chunk(path)

    def test_read_error_is_corrupt(self, tmp_path, monkeypatch):
        """EIO from read(2) while hashing."""
        path = tmp_path / "c.rcol"
        write_chunk(path, sample_columns())

        def failing_digest(fh, *rest):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(spill, "_verify_digest", failing_digest)
        with pytest.raises(ChunkCorrupt, match="Input/output error"):
            read_chunk(path)
