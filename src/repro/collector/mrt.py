"""MRT-flavoured binary log codec.

The Routing Arbiter archived its BGP packet logs in the Multithreaded
Routing Toolkit (MRT) format; the paper's analysis pipeline decoded
those files offline.  We implement the same architecture: the collector
serializes :class:`~repro.collector.record.UpdateRecord` streams into a
binary format closely modelled on MRT's ``BGP4MP_MESSAGE`` framing —
a per-record header ``(timestamp seconds, microseconds, peer AS, peer
IP)`` followed by an actual RFC 4271 wire-encoded BGP UPDATE — and the
analysis pipeline reads them back.

Going through real BGP wire encoding is deliberate: it exercises the
:mod:`repro.bgp.wire` codec on every logged record, just as the paper's
tools re-parsed real packets.
"""

from __future__ import annotations

import struct
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

import numpy as np

from ..bgp.attributes import PathAttributes
from ..bgp.messages import UpdateMessage
from ..bgp.wire import WireError, decode_message, encode_message
from ..net.prefix import Prefix
from .record import UpdateKind, UpdateRecord, update_rows

__all__ = [
    "MrtError",
    "write_records",
    "read_records",
    "write_column_bodies",
    "read_column_batches",
    "MAGIC",
]

#: File magic: identifies our MRT-flavoured update logs.
MAGIC = b"RRIL1\x00"

_RECORD_HEADER = struct.Struct(">IIHIH")  # secs, usecs, peer_asn, peer_ip, length
_RECORD_LENGTH = struct.Struct(">14xH")  # the length field alone
#: The same header as a NumPy record, for a batch of frames at once.
_HEADER_DTYPE = np.dtype(
    [
        ("seconds", ">u4"),
        ("microseconds", ">u4"),
        ("peer_asn", ">u2"),
        ("peer_id", ">u4"),
        ("length", ">u2"),
    ]
)
#: ``RECORD_DTYPE``'s payload-determined fields, as the columnar
#: reader's memo keeps them per distinct payload.
_ROW_TAIL = struct.Struct("=IBBI")  # net, plen, kind, attr_id
_ROW_TAIL_DTYPE = np.dtype(
    [("net", "u4"), ("plen", "u1"), ("kind", "u1"), ("attr_id", "u4")]
)

#: The reader takes the stream in blocks of this many bytes and walks
#: the frames of each block in place.
_BLOCK_BYTES = 1 << 18
#: Total payload bytes one read's memo may hold as keys.
_MEMO_KEY_BYTES = 1 << 20


class MrtError(ValueError):
    """Raised on malformed log data."""


def _split_time(time: float) -> tuple:
    seconds = int(time)
    microseconds = int(round((time - seconds) * 1_000_000))
    if microseconds == 1_000_000:  # rounding spill-over
        seconds += 1
        microseconds = 0
    return seconds, microseconds


def write_record_body(stream: BinaryIO, record: UpdateRecord) -> None:
    """Serialize one record (header + BGP payload, no file magic)."""
    if record.kind is UpdateKind.ANNOUNCE:
        message = UpdateMessage(
            announced=(record.prefix,), attributes=record.attributes
        )
    else:
        message = UpdateMessage(withdrawn=(record.prefix,))
    payload = encode_message(message)
    seconds, microseconds = _split_time(record.time)
    stream.write(
        _RECORD_HEADER.pack(
            seconds,
            microseconds,
            record.peer_asn,
            record.peer_id,
            len(payload),
        )
    )
    stream.write(payload)


def write_records(
    stream: BinaryIO, records: Iterable[UpdateRecord]
) -> int:
    """Serialize ``records`` to ``stream``; returns the record count.

    Each record is framed individually (one NLRI per UPDATE) so the
    reader can reproduce exact per-record timestamps; batching multiple
    prefixes into shared UPDATEs is the transmitting router's business,
    not the archive's.
    """
    stream.write(MAGIC)
    count = 0
    for record in records:
        write_record_body(stream, record)
        count += 1
    return count


class PayloadMemo:
    """Per-read memo ``payload bytes → row``: the one place an archived
    BGP UPDATE is decoded.

    The paper's traffic is mostly byte-for-byte repeats (WWDup, AADup),
    so each *distinct* payload is decoded and validated once per read
    and a repeat costs one dict lookup.  ``row_of`` turns the decoded
    :class:`UpdateMessage` into what the calling reader keeps per
    payload, or rejects it; only accepted payloads are remembered.

    The memo is bounded by total key bytes: at ``_MEMO_KEY_BYTES`` it
    is cleared wholesale, so a hostile archive of all-distinct payloads
    pays a decode per frame — what every frame paid before — and does
    not grow the process.
    """

    __slots__ = ("_rows", "_row_of", "key_bytes")

    def __init__(self, row_of: Callable[[UpdateMessage], Any]) -> None:
        self._rows: Dict[bytes, Any] = {}
        self._row_of = row_of
        self.key_bytes = 0

    def resolve(self, payload: bytes) -> Any:
        """The row of ``payload``; ``None`` when it is not exactly one
        BGP UPDATE.  The decoder's :class:`WireError` and whatever
        ``row_of`` raises propagate."""
        row = self._rows.get(payload)
        if row is None:
            message, consumed = decode_message(payload)
            if consumed != len(payload) or not isinstance(
                message, UpdateMessage
            ):
                return None
            row = self._row_of(message)
            if self.key_bytes + len(payload) > _MEMO_KEY_BYTES:
                self._rows.clear()
                self.key_bytes = 0
            self._rows[payload] = row
            self.key_bytes += len(payload)
        return row


def _archive_row(
    message: UpdateMessage,
) -> Tuple[Prefix, UpdateKind, Optional[PathAttributes]]:
    rows = update_rows(message)
    if len(rows) != 1:
        raise MrtError("archive records must carry exactly one prefix")
    return rows[0]


def _scan_frames(
    stream: BinaryIO, memo: PayloadMemo
) -> Iterator[Tuple[bytes, List[int], list]]:
    """Validate and decode an archive block by block.

    The one validation ladder both front ends consume: file magic,
    whole header, whole payload, a payload that is exactly one BGP
    UPDATE, and that UPDATE passing ``memo``'s ``row_of`` (exactly one
    prefix).  Yields ``(buffer, offsets, rows)`` per block: frame
    ``i``'s header starts at ``buffer[offsets[i]]`` and ``rows[i]`` is
    its payload's memo row.  A frame that straddles a block boundary is
    carried into the next block; the frames ahead of any damage are
    yielded before the error is raised.
    """
    magic = stream.read(len(MAGIC))
    if magic != MAGIC:
        raise MrtError(f"bad magic {magic!r}")
    read = stream.read
    header_size = _RECORD_HEADER.size
    length_of = _RECORD_LENGTH.unpack_from
    resolve = memo.resolve
    carry = b""
    while True:
        block = read(_BLOCK_BYTES)
        buffer = carry + block if carry else block
        end = len(buffer)
        offsets: List[int] = []
        rows: list = []
        position = 0
        try:
            while True:
                body = position + header_size
                if body > end:
                    break
                stop = body + length_of(buffer, position)[0]
                if stop > end:
                    break
                try:
                    row = resolve(buffer[body:stop])
                except WireError as exc:
                    raise MrtError(f"bad BGP payload: {exc}") from exc
                if row is None:
                    raise MrtError(
                        "record payload is not a single BGP UPDATE"
                    )
                offsets.append(position)
                rows.append(row)
                position = stop
        except MrtError:
            if offsets:
                yield buffer, offsets, rows
            raise
        if offsets:
            yield buffer, offsets, rows
        carry = buffer[position:]
        if not block:  # end of stream: whatever is carried is cut short
            if not carry:
                return
            raise MrtError(
                "truncated record header"
                if len(carry) < header_size
                else "truncated record payload"
            )


def read_records(stream: BinaryIO) -> Iterator[UpdateRecord]:
    """Deserialize records from ``stream`` (reverse of
    :func:`write_records`)."""
    header = _RECORD_HEADER.unpack_from
    for buffer, offsets, rows in _scan_frames(
        stream, PayloadMemo(_archive_row)
    ):
        for offset, (prefix, kind, attributes) in zip(offsets, rows):
            seconds, microseconds, peer_asn, peer_ip, _ = header(
                buffer, offset
            )
            yield UpdateRecord(
                seconds + microseconds / 1_000_000,
                peer_ip,
                peer_asn,
                prefix,
                kind,
                attributes,
            )


def write_column_bodies(stream: BinaryIO, columns) -> int:
    """Serialize a :class:`~repro.core.columns.RecordColumns` batch
    (headers + BGP payloads, no file magic); returns the row count.

    The wire payload depends only on (prefix, attributes), so encoded
    payloads are cached per distinct ``(net, plen, attr_id)`` — a flap
    re-announcing the same bundle thousands of times encodes once.
    The headers are packed for the whole batch at once
    (:func:`_split_time` over the time column) and the batch leaves in
    one write.
    """
    from ..core.columns import NO_ATTR  # local: core.columns imports us

    table = columns.attrs
    data = columns.data
    no_attr = int(NO_ATTR)
    announce = int(UpdateKind.ANNOUNCE)
    payloads: Dict[Tuple[int, int, int], bytes] = {}
    bodies: List[bytes] = []
    for net, plen, kind, attr_id in zip(
        data["net"].tolist(),
        data["plen"].tolist(),
        data["kind"].tolist(),
        data["attr_id"].tolist(),
    ):
        if kind != announce:
            attr_id = no_attr
        key = (net, plen, attr_id)
        payload = payloads.get(key)
        if payload is None:
            prefix = Prefix(net, plen)
            if kind == announce:
                message = UpdateMessage(
                    announced=(prefix,), attributes=table[attr_id]
                )
            else:
                message = UpdateMessage(withdrawn=(prefix,))
            payload = payloads[key] = encode_message(message)
        bodies.append(payload)

    times = data["time"]
    seconds = np.trunc(times)
    microseconds = np.rint((times - seconds) * 1_000_000)
    spill = microseconds == 1_000_000  # rounding spill-over
    seconds[spill] += 1
    microseconds[spill] = 0
    # The casts below would wrap where struct.pack refuses.
    if not (
        (seconds >= 0) & (seconds <= 0xFFFFFFFF) & (microseconds >= 0)
    ).all() or (data["peer_asn"] > 0xFFFF).any():
        raise struct.error("record header field out of range")
    headers = np.empty(len(data), dtype=_HEADER_DTYPE)
    headers["seconds"] = seconds
    headers["microseconds"] = microseconds
    headers["peer_asn"] = data["peer_asn"]
    headers["peer_id"] = data["peer_id"]
    headers["length"] = np.fromiter(
        map(len, bodies), dtype=np.uint16, count=len(bodies)
    )
    packed = headers.tobytes()
    size = _HEADER_DTYPE.itemsize
    frames: List[bytes] = [b""] * (2 * len(bodies))
    frames[0::2] = [
        packed[start:start + size] for start in range(0, len(packed), size)
    ]
    frames[1::2] = bodies
    stream.write(b"".join(frames))
    return len(data)


def read_column_batches(
    stream: BinaryIO,
    batch_size: int = 65536,
    attrs=None,
) -> Iterator:
    """Deserialize an archive into :class:`RecordColumns` batches of
    ``batch_size`` rows (the last may be shorter) — no per-record
    Python objects are built: a frame costs a header walk and a memo
    lookup, and the columns are filled per block with NumPy.

    Pass a shared ``attrs`` :class:`AttributeTable` so every yielded
    batch (and any other batches in the campaign) indexes one
    vocabulary; by default the batches share a fresh table.  Attribute
    ids are interned in the order the archive first shows them.
    """
    from ..core.columns import (
        NO_ATTR,
        RECORD_DTYPE,
        AttributeTable,
        RecordColumns,
    )

    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    table = attrs if attrs is not None else AttributeTable()
    intern = table.intern
    no_attr = int(NO_ATTR)
    pack = _ROW_TAIL.pack
    header_span = np.arange(_HEADER_DTYPE.itemsize)

    def row_of(message: UpdateMessage) -> bytes:
        prefix, kind, attributes = _archive_row(message)
        attr_id = no_attr if attributes is None else intern(attributes)
        return pack(prefix.network, prefix.length, kind, attr_id)

    pending: List[np.ndarray] = []
    count = 0
    for buffer, offsets, tails in _scan_frames(stream, PayloadMemo(row_of)):
        starts = np.array(offsets, dtype=np.intp)[:, None]
        head = np.frombuffer(buffer, dtype=np.uint8)[starts + header_span]
        head = head.view(_HEADER_DTYPE)[:, 0]
        tail = np.frombuffer(b"".join(tails), dtype=_ROW_TAIL_DTYPE)
        data = np.empty(len(offsets), dtype=RECORD_DTYPE)
        data["time"] = head["seconds"] + head["microseconds"] / 1_000_000
        data["peer_id"] = head["peer_id"]
        data["peer_asn"] = head["peer_asn"]
        for name in _ROW_TAIL_DTYPE.names:
            data[name] = tail[name]
        pending.append(data)
        count += len(data)
        if count >= batch_size:
            data = np.concatenate(pending)
            full = count - count % batch_size
            for start in range(0, full, batch_size):
                yield RecordColumns(data[start:start + batch_size], table)
            pending = [data[full:]]
            count -= full
    if count:
        yield RecordColumns(np.concatenate(pending), table)
