"""Unit and property tests for the collector subpackage."""

import io
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import KeepAliveMessage, UpdateMessage
from repro.bgp.wire import encode_message
from repro.collector import mrt
from repro.collector.log import CountingLog, FileLog
from repro.collector.mrt import (
    MAGIC,
    MrtError,
    read_column_batches,
    read_records,
    write_records,
)
from repro.collector.record import (
    MemoryLog,
    UpdateKind,
    UpdateRecord,
    flatten_update,
)
from repro.core.columns import RecordColumns
from repro.net.prefix import Prefix

from .test_prefix import prefixes

P = Prefix.parse


def announce(time=0.0, peer=1, asn=701, prefix="10.0.0.0/8", path=(701,), **kw):
    return UpdateRecord(
        time,
        peer,
        asn,
        P(prefix),
        UpdateKind.ANNOUNCE,
        PathAttributes(as_path=AsPath(path), **kw),
    )


def withdraw(time=0.0, peer=1, asn=701, prefix="10.0.0.0/8"):
    return UpdateRecord(time, peer, asn, P(prefix), UpdateKind.WITHDRAW)


class TestUpdateRecord:
    def test_announce_requires_attributes(self):
        with pytest.raises(ValueError):
            UpdateRecord(0.0, 1, 701, P("10.0.0.0/8"), UpdateKind.ANNOUNCE)

    def test_withdraw_rejects_attributes(self):
        with pytest.raises(ValueError):
            UpdateRecord(
                0.0, 1, 701, P("10.0.0.0/8"), UpdateKind.WITHDRAW,
                PathAttributes(),
            )

    def test_flatten_update_counts(self):
        msg = UpdateMessage(
            withdrawn=(P("10.0.0.0/8"), P("11.0.0.0/8")),
            announced=(P("12.0.0.0/8"),),
            attributes=PathAttributes(as_path=AsPath((7,))),
        )
        records = flatten_update(5.0, 9, 701, msg)
        assert len(records) == 3
        assert [r.kind for r in records] == [
            UpdateKind.WITHDRAW, UpdateKind.WITHDRAW, UpdateKind.ANNOUNCE
        ]
        assert all(r.time == 5.0 and r.peer_asn == 701 for r in records)


class TestMrtCodec:
    def test_roundtrip_mixed(self):
        records = [
            announce(time=1.25, peer=3, asn=701, med=9),
            withdraw(time=2.5, peer=4, asn=1239, prefix="192.0.2.0/24"),
            announce(time=3.0, path=(701, 1239, 3561), local_pref=None),
        ]
        buffer = io.BytesIO()
        assert write_records(buffer, records) == 3
        buffer.seek(0)
        back = list(read_records(buffer))
        assert back == records

    def test_microsecond_precision(self):
        rec = withdraw(time=1234.567891)
        buffer = io.BytesIO()
        write_records(buffer, [rec])
        buffer.seek(0)
        (back,) = read_records(buffer)
        assert back.time == pytest.approx(rec.time, abs=1e-6)

    def test_bad_magic_rejected(self):
        with pytest.raises(MrtError):
            list(read_records(io.BytesIO(b"NOTMAGIC")))

    def test_truncated_stream_rejected(self):
        buffer = io.BytesIO()
        write_records(buffer, [withdraw()])
        data = buffer.getvalue()
        with pytest.raises(MrtError):
            list(read_records(io.BytesIO(data[:-3])))

    def test_empty_archive(self):
        buffer = io.BytesIO()
        write_records(buffer, [])
        buffer.seek(0)
        assert list(read_records(buffer)) == []

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e9),
                st.booleans(),
                prefixes(),
                st.integers(1, 65535),
            ),
            max_size=15,
        )
    )
    def test_roundtrip_property(self, specs):
        records = []
        for time, is_announce, prefix, asn in specs:
            if is_announce:
                records.append(
                    UpdateRecord(
                        time, 1, asn, prefix, UpdateKind.ANNOUNCE,
                        PathAttributes(as_path=AsPath((asn,)), next_hop=1),
                    )
                )
            else:
                records.append(
                    UpdateRecord(time, 1, asn, prefix, UpdateKind.WITHDRAW)
                )
        buffer = io.BytesIO()
        write_records(buffer, records)
        buffer.seek(0)
        back = list(read_records(buffer))
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.prefix == b.prefix
            assert a.kind == b.kind
            assert a.time == pytest.approx(b.time, abs=1e-6)


def _frame(payload: bytes, length=None) -> bytes:
    """One archive frame around ``payload`` (the on-disk header:
    seconds, microseconds, peer AS, peer IP, payload length)."""
    size = len(payload) if length is None else length
    return struct.pack(">IIHIH", 1, 0, 701, 1, size) + payload


_WITHDRAW_ONE = encode_message(UpdateMessage(withdrawn=(P("10.0.0.0/8"),)))

#: name → (archive bytes, the exact error the reader must raise).
MALFORMED_ARCHIVES = {
    "bad magic": (b"NOTMAGIC", "bad magic b'NOTMAG'"),
    "truncated header": (
        MAGIC + _frame(_WITHDRAW_ONE) + b"\x00\x01\x02",
        "truncated record header",
    ),
    "truncated payload": (
        MAGIC + _frame(_WITHDRAW_ONE)[:-3],
        "truncated record payload",
    ),
    "undecodable payload": (
        MAGIC + _frame(b"\x00" * len(_WITHDRAW_ONE)),
        "bad BGP payload: ",
    ),
    "non-UPDATE payload": (
        MAGIC + _frame(encode_message(KeepAliveMessage())),
        "record payload is not a single BGP UPDATE",
    ),
    "trailing bytes inside a payload": (
        MAGIC + _frame(_WITHDRAW_ONE + b"\xff" * 4),
        "record payload is not a single BGP UPDATE",
    ),
    "two-prefix UPDATE": (
        MAGIC
        + _frame(
            encode_message(
                UpdateMessage(
                    withdrawn=(P("10.0.0.0/8"), P("192.0.2.0/24"))
                )
            )
        ),
        "archive records must carry exactly one prefix",
    ),
}


@pytest.mark.parametrize(
    "reader", (read_records, read_column_batches), ids=lambda f: f.__name__
)
@pytest.mark.parametrize("case", sorted(MALFORMED_ARCHIVES))
def test_malformed_archive_rejected_by_both_front_ends(case, reader):
    """Hostile bytes surface as MrtError — same message from the
    record reader and the columnar reader, whichever hits them — and
    a good frame ahead of the damage does not mask it."""
    data, message = MALFORMED_ARCHIVES[case]
    with pytest.raises(MrtError) as caught:
        list(reader(io.BytesIO(data)))
    assert str(caught.value).startswith(message)
    if data.startswith(MAGIC):
        shifted = MAGIC + _frame(_WITHDRAW_ONE) + data[len(MAGIC):]
        with pytest.raises(MrtError) as caught:
            list(reader(io.BytesIO(shifted)))
        assert str(caught.value).startswith(message)


def _records_until_error(reader, data: bytes) -> tuple:
    """Every record ``reader`` yields before it raises, and the error's
    message (``None`` without one).  Column batches are one row each,
    so none is lost with the error."""
    seen, error = [], None
    try:
        if reader is read_column_batches:
            for batch in reader(io.BytesIO(data), batch_size=1):
                seen.extend(batch.to_records())
        else:
            seen.extend(reader(io.BytesIO(data)))
    except MrtError as exc:
        error = str(exc)
    return seen, error


_BOTH_READERS = pytest.mark.parametrize(
    "reader", (read_records, read_column_batches), ids=lambda f: f.__name__
)


@_BOTH_READERS
def test_bad_payload_after_its_good_twin_is_memoized(reader):
    """The memo skips the decode of byte-identical repeats only: a
    payload one byte off a remembered one still meets the whole ladder,
    and the frames ahead of it still come out."""
    bad = _WITHDRAW_ONE[:-1] + b"\x09"  # attribute length overruns
    data = MAGIC + _frame(_WITHDRAW_ONE) * 3 + _frame(bad)
    seen, error = _records_until_error(reader, data)
    assert seen == [withdraw(time=1.0)] * 3
    assert error.startswith("bad BGP payload: ")


@_BOTH_READERS
def test_truncation_at_every_byte_offset(reader):
    """Cut a small archive at each offset: the whole frames before the
    cut come out, then ``MrtError`` names the half-frame — whether the
    cut lands in a header, in a payload or (no error) exactly between
    frames."""
    records = [
        announce(time=1.25, peer=3, med=9),
        withdraw(time=2.5, peer=4, asn=1239, prefix="192.0.2.0/24"),
        announce(time=3.0, path=(701, 1239, 3561)),
        withdraw(time=2.5, peer=4, asn=1239, prefix="192.0.2.0/24"),
    ]
    buffer = io.BytesIO()
    write_records(buffer, records)
    data = buffer.getvalue()
    ends, position = [], len(MAGIC)
    for record in records:
        single = io.BytesIO()
        write_records(single, [record])
        position += len(single.getvalue()) - len(MAGIC)
        ends.append(position)
    assert position == len(data)
    for cut in range(len(MAGIC), len(data) + 1):
        whole = sum(end <= cut for end in ends)
        start = ([len(MAGIC)] + ends)[whole]
        if cut == start:
            expected = None
        elif cut - start < 16:
            expected = "truncated record header"
        else:
            expected = "truncated record payload"
        assert _records_until_error(reader, data[:cut]) == (
            records[:whole], expected
        ), cut


@pytest.mark.parametrize("batch_size", (0, -5))
def test_nonpositive_batch_size_rejected(batch_size, tmp_path):
    """Used to yield one-row batches, silently."""
    log = FileLog(tmp_path / "three.mrt")
    with log.writer() as writer:
        writer.extend([withdraw(), withdraw(), withdraw()])
    with pytest.raises(ValueError, match="batch_size"):
        next(log.iter_column_batches(batch_size))
    with open(log.path, "rb") as stream:
        with pytest.raises(ValueError, match="batch_size"):
            next(read_column_batches(stream, batch_size))


def test_memo_is_bounded_in_bytes(monkeypatch):
    """An archive of all-distinct ~4 KiB payloads (the largest BGP
    allows) cannot grow the reader: the memo is cleared at its byte
    cap, and decoding is unaffected."""
    records = [
        announce(
            time=float(i),
            path=(701,),
            communities=tuple(range(i << 10, (i << 10) + 1000)),
        )
        for i in range(40)
    ]
    buffer = io.BytesIO()
    write_records(buffer, records)
    data = buffer.getvalue()
    assert len(data) > 40 * 4000

    cap = 32 * 1024
    monkeypatch.setattr(mrt, "_MEMO_KEY_BYTES", cap)
    held = []
    resolve = mrt.PayloadMemo.resolve

    def spy(memo, payload):
        row = resolve(memo, payload)
        held.append(memo.key_bytes)
        return row

    monkeypatch.setattr(mrt.PayloadMemo, "resolve", spy)
    expected = RecordColumns.from_records(read_records(io.BytesIO(data)))
    assert expected.to_records() == records
    assert max(held) <= cap
    assert any(after < before for before, after in zip(held, held[1:]))

    del held[:]
    columns = RecordColumns.concat(
        list(read_column_batches(io.BytesIO(data), batch_size=7))
    )
    assert max(held) <= cap
    assert columns.data.tobytes() == expected.data.tobytes()
    assert list(columns.attrs) == list(expected.attrs)


class TestLogs:
    def test_memory_log(self):
        log = MemoryLog()
        log.append(withdraw(time=2.0))
        log.extend([withdraw(time=1.0)])
        assert len(log) == 2
        assert [r.time for r in log.sorted_by_time()] == [1.0, 2.0]
        log.clear()
        assert len(log) == 0

    def test_file_log_roundtrip(self, tmp_path):
        path = tmp_path / "updates.mrt"
        records = [announce(time=1.0), withdraw(time=2.0)]
        with FileLog(path).writer() as writer:
            writer.extend(records)
            assert writer.count == 2
        assert list(FileLog(path)) == records

    def test_counting_log_rows(self):
        log = CountingLog()
        log.extend(
            [
                announce(asn=701, prefix="10.0.0.0/8"),
                withdraw(asn=701, prefix="10.0.0.0/8"),
                withdraw(asn=701, prefix="11.0.0.0/8"),
                withdraw(asn=1239, prefix="11.0.0.0/8"),
            ]
        )
        assert log.row(701) == {"announce": 1, "withdraw": 2, "unique": 2}
        assert log.row(1239) == {"announce": 0, "withdraw": 1, "unique": 1}
        assert sorted(set(log.announces) | set(log.withdraws)) == [701, 1239]
        assert log.total == 4
