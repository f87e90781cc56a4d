"""Unit and property tests for the collector subpackage."""

import bz2
import io
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import KeepAliveMessage, UpdateMessage
from repro.bgp.wire import WireError, decode_message, encode_message
from repro.collector import mrt
from repro.collector.log import CountingLog, FileLog
from repro.collector.mrt import (
    MrtError,
    read_column_batches,
    read_records,
    read_state_changes,
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


def _frame(
    payload: bytes, length=None, mrt_type=17, subtype=1, afi=1,
    seconds=1, microseconds=0, peer_asn=701, peer_ip=1,
) -> bytes:
    """One hand-packed BGP4MP frame around ``payload``: the common
    header (seconds, type, subtype, body length), the microseconds on
    type 17, then the peer header (peer AS, local AS 65000, ifindex 0,
    address family, peer IP, local IP 10.0.0.254)."""
    body = (
        (struct.pack(">I", microseconds) if mrt_type == 17 else b"")
        + struct.pack(
            ">HHHHII", peer_asn, 65000, 0, afi, peer_ip, 0x0A0000FE
        )
        + payload
    )
    size = len(body) if length is None else length
    return struct.pack(">IHHI", seconds, mrt_type, subtype, size) + body


def _state_frame(old=6, new=1, **kw) -> bytes:
    return _frame(struct.pack(">HH", old, new), subtype=0, **kw)


def _archive(records) -> bytes:
    buffer = io.BytesIO()
    write_records(buffer, records)
    return buffer.getvalue()


_WITHDRAW_ONE = encode_message(UpdateMessage(withdrawn=(P("10.0.0.0/8"),)))

#: An announcement whose AS_SEQUENCE holds AS 0 (malformed, RFC 7607).
_AS0_UPDATE = encode_message(
    UpdateMessage(
        announced=(P("10.0.0.0/8"),),
        attributes=PathAttributes(as_path=AsPath((7, 3561))),
    )
).replace(bytes([2, 2, 0, 7]), bytes([2, 2, 0, 0]))

#: A real archive the way collectors publish them: bzip2-compressed.
_COMPRESSED = bz2.compress(_archive([announce(time=1.5), withdraw()]))


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
        """A file in another format (here a compressed archive) is not
        an MRT frame: its leading bytes name no BGP4MP type."""
        with pytest.raises(MrtError, match="unsupported MRT record type"):
            list(read_records(io.BytesIO(_COMPRESSED)))

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


class TestBgp4mp:
    """The RFC 6396 framing itself, field by field."""

    def test_roundtrip(self):
        records = [
            announce(time=100.0, peer=0x0A000001, med=5),
            withdraw(time=101.000001, peer=0x0A000001),
            announce(time=102.5, peer=0x0A000001, prefix="192.0.2.0/24"),
        ]
        buffer = io.BytesIO()
        assert write_records(buffer, records) == 3
        buffer.seek(0)
        # BGP4MP_ET keeps the microseconds, so nothing is lost.
        assert list(read_records(buffer)) == records

    def test_attributes_survive(self):
        buffer = io.BytesIO()
        write_records(buffer, [announce(path=(701, 3561), med=5)])
        buffer.seek(0)
        (record,) = read_records(buffer)
        assert tuple(record.attributes.as_path) == (701, 3561)
        assert record.attributes.med == 5

    def test_empty_stream(self):
        for reader in (read_records, read_column_batches,
                       read_state_changes):
            assert list(reader(io.BytesIO(b""))) == []

    def test_truncated_header(self):
        with pytest.raises(MrtError, match="truncated MRT header"):
            list(read_records(io.BytesIO(b"\x00\x01\x02")))

    def test_wrong_type_rejected(self):
        data = bytearray(_archive([withdraw()]))
        data[5] = 99  # type low byte
        with pytest.raises(MrtError, match="unsupported MRT record type"):
            list(read_records(io.BytesIO(bytes(data))))

    def test_common_header_fields(self):
        record = withdraw(time=1234.9, peer=0x0A000001, asn=1239)
        data = _archive([record])
        assert data == _frame(
            _WITHDRAW_ONE, seconds=1234, microseconds=900000,
            peer_asn=1239, peer_ip=0x0A000001,
        )
        seconds, mrt_type, subtype, length, micro = struct.unpack_from(
            ">IHHII", data
        )
        assert (seconds, micro) == (1234, 900000)
        assert (mrt_type, subtype) == (17, 1)  # BGP4MP_ET / MESSAGE
        assert length == len(data) - 12
        assert data[32:] == _WITHDRAW_ONE

    def test_type16_frame_decodes_at_whole_seconds(self, monkeypatch):
        """Classic BGP4MP (type 16) has no microsecond field and a
        28-byte header; it reads beside type 17 at whole seconds,
        wherever a block boundary cuts the frames."""
        data = (
            _frame(_WITHDRAW_ONE, mrt_type=16, seconds=7)
            + _frame(_WITHDRAW_ONE, seconds=7, microseconds=250000)
            + _frame(_WITHDRAW_ONE, mrt_type=16, seconds=8)
        )
        expected = [
            withdraw(time=7.0), withdraw(time=7.25), withdraw(time=8.0)
        ]
        states = _state_frame(mrt_type=16, seconds=9) + _state_frame(
            seconds=9, microseconds=5
        )
        for block in (1, 29, 4096):
            monkeypatch.setattr(mrt, "_BLOCK_BYTES", block)
            assert list(read_records(io.BytesIO(data))) == expected
            batches = list(read_column_batches(io.BytesIO(data)))
            assert RecordColumns.concat(batches).to_records() == expected
            assert [
                (event.time, event.old_state, event.new_state)
                for event in read_state_changes(io.BytesIO(states))
            ] == [
                (9.0, "ESTABLISHED", "IDLE"),
                (9.000005, "ESTABLISHED", "IDLE"),
            ]


#: The UPDATEs real archives carry besides one-prefix ones, each with
#: the records it stands for (at the frame's time and peer).
MULTI_ROW_UPDATES = {
    "two-prefix UPDATE": UpdateMessage(
        withdrawn=(P("10.0.0.0/8"), P("192.0.2.0/24"))
    ),
    "withdrawals and announcements": UpdateMessage(
        withdrawn=(P("11.0.0.0/8"),),
        announced=(P("10.0.0.0/8"), P("192.0.2.0/24")),
        attributes=PathAttributes(as_path=AsPath((701, 3561)), med=9),
    ),
    "End-of-RIB": UpdateMessage(),
}


_BOTH_READERS = pytest.mark.parametrize(
    "reader", (read_records, read_column_batches), ids=lambda f: f.__name__
)


@_BOTH_READERS
@pytest.mark.parametrize("case", sorted(MULTI_ROW_UPDATES))
def test_update_expands_into_its_rows(case, reader, monkeypatch):
    """An UPDATE gives one record per withdrawn or announced prefix,
    all at its frame's time and peer (an End-of-RIB marker gives
    none), identically through every front end and wherever a block
    boundary cuts the frames."""
    message = MULTI_ROW_UPDATES[case]
    data = (
        _frame(_WITHDRAW_ONE, seconds=1)
        + _frame(encode_message(message), seconds=2, microseconds=5)
        + _frame(_WITHDRAW_ONE, seconds=3)
    )
    expected = (
        [withdraw(time=1.0)]
        + flatten_update(2.000005, 1, 701, message)
        + [withdraw(time=3.0)]
    )
    assert len(expected) == 2 + message.prefix_update_count
    for block in (1, 33, 4096):
        monkeypatch.setattr(mrt, "_BLOCK_BYTES", block)
        if reader is read_records:
            assert list(read_records(io.BytesIO(data))) == expected
        else:
            for batch_size in (1, 2, 64):
                batches = list(read_column_batches(io.BytesIO(data), batch_size))
                assert RecordColumns.concat(batches).to_records() == expected


#: name → (archive bytes, the exact error the update readers raise).
MALFORMED_ARCHIVES = {
    "bad magic": (_COMPRESSED, "unsupported MRT record type 12609/22822"),
    "truncated header": (
        _frame(_WITHDRAW_ONE) + b"\x00\x01\x02",
        "truncated MRT header",
    ),
    "truncated payload": (
        _frame(_WITHDRAW_ONE)[:-3],
        "truncated MRT record",
    ),
    "undecodable payload": (
        _frame(b"\x00" * len(_WITHDRAW_ONE)),
        "bad BGP payload: ",
    ),
    "AS 0 in an AS_PATH": (
        _frame(_AS0_UPDATE),
        "bad BGP payload: AS_PATH holds AS 0",
    ),
    "non-UPDATE payload": (
        _frame(encode_message(KeepAliveMessage())),
        "record payload is not a single BGP UPDATE",
    ),
    "trailing bytes inside a payload": (
        _frame(_WITHDRAW_ONE + b"\xff" * 4),
        "record payload is not a single BGP UPDATE",
    ),
    "wrong MRT type": (
        _frame(_WITHDRAW_ONE, mrt_type=13),  # TABLE_DUMP_V2
        "unsupported MRT record type 13/1",
    ),
    "wrong subtype": (
        _state_frame(),
        "unsupported MRT record type 17/0",
    ),
    "IPv6 address family": (
        _frame(_WITHDRAW_ONE, afi=2),
        "unsupported address family 2",
    ),
    "body shorter than the peer header": (
        _frame(b"", length=10)[:22],
        "bad BGP4MP body length 10",
    ),
    "body longer than any BGP message": (
        _frame(_WITHDRAW_ONE, length=5000),
        "bad BGP4MP body length 5000",
    ),
}

#: The same for the state-change reader.
MALFORMED_STATE_ARCHIVES = {
    "bad magic": MALFORMED_ARCHIVES["bad magic"],
    "truncated header": (_state_frame() + b"\x00", "truncated MRT header"),
    "truncated payload": (_state_frame()[:-1], "truncated MRT record"),
    "wrong MRT type": (
        _state_frame(mrt_type=13), "unsupported MRT record type 13/0"
    ),
    "wrong subtype": (
        _frame(_WITHDRAW_ONE), "unsupported MRT record type 17/1"
    ),
    "IPv6 address family": (
        _state_frame(afi=2), "unsupported address family 2"
    ),
    "body shorter than the peer header": (
        _state_frame(length=19)[:31], "bad BGP4MP body length 19"
    ),
    "bad FSM state code": (
        _state_frame(new=99), "unknown FSM state code 6/99"
    ),
    "trailing bytes after the state codes": (
        _frame(struct.pack(">HHH", 6, 1, 0), subtype=0),
        "bad STATE_CHANGE payload length 6",
    ),
}


def _assert_rejected(reader, data, message, good_frame):
    """``reader`` raises ``message`` on ``data``, and still does when a
    good frame precedes the damage."""
    for archive in (data, good_frame + data):
        with pytest.raises(MrtError) as caught:
            list(reader(io.BytesIO(archive)))
        assert str(caught.value).startswith(message)


@pytest.mark.parametrize(
    "reader", (read_records, read_column_batches), ids=lambda f: f.__name__
)
@pytest.mark.parametrize("case", sorted(MALFORMED_ARCHIVES))
def test_malformed_archive_rejected_by_both_front_ends(case, reader):
    """Hostile bytes surface as MrtError — same message from the
    record reader and the columnar reader, whichever hits them — and
    a good frame ahead of the damage does not mask it."""
    data, message = MALFORMED_ARCHIVES[case]
    _assert_rejected(reader, data, message, _frame(_WITHDRAW_ONE))


@pytest.mark.parametrize("case", sorted(MALFORMED_STATE_ARCHIVES))
def test_malformed_state_archive_rejected(case):
    data, message = MALFORMED_STATE_ARCHIVES[case]
    _assert_rejected(read_state_changes, data, message, _state_frame())


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


@_BOTH_READERS
def test_bad_payload_after_its_good_twin_is_memoized(reader):
    """The memo skips the decode of byte-identical repeats only: a
    payload one byte off a remembered one still meets the whole ladder,
    and the frames ahead of it still come out."""
    bad = _WITHDRAW_ONE[:-1] + b"\x09"  # attribute length overruns
    data = _frame(_WITHDRAW_ONE) * 3 + _frame(bad)
    seen, error = _records_until_error(reader, data)
    assert seen == [withdraw(time=1.0)] * 3
    assert error.startswith("bad BGP payload: ")


@_BOTH_READERS
def test_as0_path_raises_after_the_frames_ahead_of_it(reader):
    """AS 0 in an AS_PATH is a payload fault like any other: the frames
    ahead of it come out, then ``MrtError`` — not a bare ValueError."""
    data = _frame(_WITHDRAW_ONE) * 2 + _frame(_AS0_UPDATE)
    assert _records_until_error(reader, data) == (
        [withdraw(time=1.0)] * 2, "bad BGP payload: AS_PATH holds AS 0"
    )
    assert _reference_read(data) == _records_until_error(reader, data)


@_BOTH_READERS
def test_truncation_at_every_byte_offset(reader):
    """Cut a small archive at each offset: the whole frames before the
    cut come out, then ``MrtError`` names the half-frame — whether the
    cut lands in the common header, in the rest of the frame or (no
    error) exactly between frames."""
    records = [
        announce(time=1.25, peer=3, med=9),
        withdraw(time=2.5, peer=4, asn=1239, prefix="192.0.2.0/24"),
        announce(time=3.0, path=(701, 1239, 3561)),
        withdraw(time=2.5, peer=4, asn=1239, prefix="192.0.2.0/24"),
    ]
    data = _archive(records)
    ends, position = [], 0
    for record in records:
        position += len(_archive([record]))
        ends.append(position)
    assert position == len(data)
    for cut in range(len(data) + 1):
        whole = sum(end <= cut for end in ends)
        start = ([0] + ends)[whole]
        if cut == start:
            expected = None
        elif cut - start < 12:
            expected = "truncated MRT header"
        else:
            expected = "truncated MRT record"
        assert _records_until_error(reader, data[:cut]) == (
            records[:whole], expected
        ), cut


def _reference_read(data: bytes) -> tuple:
    """RFC 6396 update frames read one at a time, the ladder in order:
    the records ahead of the first fault, and its message (``None``
    without one).  The oracle for the block scanner's fault order."""
    records, position = [], 0
    while position < len(data):
        if len(data) - position < 12:
            return records, "truncated MRT header"
        seconds, mrt_type, subtype, length = struct.unpack_from(
            ">IHHI", data, position
        )
        ahead = 20 if mrt_type == 17 else 16
        kind = mrt_type in (16, 17) and subtype == 1
        sized = ahead <= length <= ahead + 4096
        if length <= 20 + 4096 and position + 12 + length > len(data):
            return records, "truncated MRT record"
        if not kind:
            return records, f"unsupported MRT record type {mrt_type}/{subtype}"
        if not sized:
            return records, f"bad BGP4MP body length {length}"
        body = position + 12
        micro = struct.unpack_from(">I", data, body)[0] if ahead == 20 else 0
        peer_asn, _, _, afi, peer_ip = struct.unpack_from(
            ">HHHHI", data, body + ahead - 16
        )
        if afi != 1:
            return records, f"unsupported address family {afi}"
        payload = data[body + ahead:body + length]
        try:
            message, consumed = decode_message(payload)
        except WireError as exc:
            return records, f"bad BGP payload: {exc}"
        if consumed != len(payload) or not isinstance(message, UpdateMessage):
            return records, "record payload is not a single BGP UPDATE"
        records += flatten_update(
            seconds + micro / 1_000_000, peer_ip, peer_asn, message
        )
        position = body + length
    return records, None


@pytest.mark.parametrize("block", (33, 4096))
@_BOTH_READERS
def test_damage_meets_the_reference_ladder(reader, block, monkeypatch):
    """Random byte damage to a mixed type-16/type-17 archive: every
    reader yields the records a frame-by-frame reading yields ahead of
    the first fault, then raises that fault's message — whichever
    block the damage lands in and whatever else it breaks after."""
    monkeypatch.setattr(mrt, "_BLOCK_BYTES", block)
    rng = random.Random(block)
    messages = [
        encode_message(UpdateMessage(withdrawn=(P("10.0.0.0/8"),))),
        encode_message(
            UpdateMessage(
                withdrawn=(P("11.0.0.0/8"),),
                announced=(P("192.0.2.0/24"), P("10.0.0.0/8")),
                attributes=PathAttributes(as_path=AsPath((701, 3561))),
            )
        ),
        encode_message(UpdateMessage()),
    ]
    clean = b"".join(
        _frame(
            rng.choice(messages), mrt_type=rng.choice((16, 17, 17)),
            seconds=i, microseconds=rng.randrange(10**6),
        )
        for i in range(40)
    )
    assert _records_until_error(reader, clean) == _reference_read(clean)
    faults = set()
    for _ in range(150):
        data = bytearray(clean)
        for _ in range(rng.randint(1, 3)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        data = bytes(data[: rng.choice((len(data), rng.randrange(len(data))))])
        expected = _reference_read(data)
        assert _records_until_error(reader, data) == expected
        faults.add((expected[1] or "").split(" ")[0])
    assert len(faults) >= 4  # the damage reached several rungs


@pytest.mark.parametrize("block", (33, 4096))
@_BOTH_READERS
def test_all_distinct_payloads_meet_the_reference(reader, block, monkeypatch):
    """An archive in which no two payloads repeat (a distinct MED,
    prefix or path per frame), so every frame misses the memo and is
    decoded: each reader yields exactly the frame-by-frame reading."""
    monkeypatch.setattr(mrt, "_BLOCK_BYTES", block)
    rng = random.Random(block)
    payloads, frames = set(), []
    for i in range(300):
        prefix = Prefix((10 << 24) | (i << 8), 24)
        if i % 5 == 0:
            message = UpdateMessage(withdrawn=(prefix,))
        else:
            message = UpdateMessage(
                withdrawn=(P("192.0.2.0/24"),) * (i % 3 == 0),
                announced=(prefix,) + (P("198.51.100.0/24"),) * (i % 4 == 0),
                attributes=PathAttributes(
                    as_path=AsPath(rng.sample(range(1, 65536), i % 4 + 1)),
                    next_hop=rng.randrange(1 << 32),
                    med=i,
                    local_pref=rng.choice((None, 100, 200)),
                    communities=frozenset(rng.sample(range(1 << 32), i % 3)),
                    atomic_aggregate=i % 7 == 0,
                    aggregator=(701, i) if i % 11 == 0 else None,
                ),
            )
        payloads.add(encode_message(message))
        frames.append(_frame(
            encode_message(message), mrt_type=rng.choice((16, 17)),
            seconds=i, microseconds=rng.randrange(10**6),
        ))
    assert len(payloads) == len(frames)
    data = b"".join(frames)
    expected = _reference_read(data)
    assert expected[1] is None and len(expected[0]) > 300
    assert _records_until_error(reader, data) == expected


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
    data = _archive(records)
    assert len(data) > 40 * 4000

    cap = 32 * 1024
    monkeypatch.setattr(mrt, "_MEMO_KEY_BYTES", cap)
    held = []
    missing = mrt.PayloadMemo.__missing__

    def spy(memo, payload):  # a hit leaves key_bytes as it is
        row = missing(memo, payload)
        held.append(memo.key_bytes)
        return row

    monkeypatch.setattr(mrt.PayloadMemo, "__missing__", spy)
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
