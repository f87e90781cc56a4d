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
from typing import BinaryIO, Dict, Iterable, Iterator, List, Tuple

import numpy as np

from ..bgp.messages import UpdateMessage
from ..bgp.wire import WireError, decode_message, encode_message
from ..net.prefix import Prefix
from .record import UpdateKind, UpdateRecord, flatten_update

__all__ = [
    "MrtError",
    "write_records",
    "read_records",
    "write_columns",
    "write_column_bodies",
    "read_column_batches",
    "MAGIC",
]

#: File magic: identifies our MRT-flavoured update logs.
MAGIC = b"RRIL1\x00"

_RECORD_HEADER = struct.Struct(">IIHIH")  # secs, usecs, peer_asn, peer_ip, length


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


def _read_frames(
    stream: BinaryIO,
) -> Iterator[Tuple[float, int, int, UpdateMessage]]:
    """Validate and decode an archive frame by frame.

    The one validation ladder both front ends consume: file magic,
    whole header, whole payload, a payload that is exactly one BGP
    UPDATE, and that UPDATE carrying exactly one prefix.  Yields
    ``(time, peer_ip, peer_asn, message)``.
    """
    magic = stream.read(len(MAGIC))
    if magic != MAGIC:
        raise MrtError(f"bad magic {magic!r}")
    read = stream.read
    header_size = _RECORD_HEADER.size
    unpack = _RECORD_HEADER.unpack
    while True:
        header = read(header_size)
        if not header:
            return
        if len(header) != header_size:
            raise MrtError("truncated record header")
        seconds, microseconds, peer_asn, peer_ip, length = unpack(header)
        payload = read(length)
        if len(payload) != length:
            raise MrtError("truncated record payload")
        try:
            message, consumed = decode_message(payload)
        except WireError as exc:
            raise MrtError(f"bad BGP payload: {exc}") from exc
        if consumed != length or not isinstance(message, UpdateMessage):
            raise MrtError("record payload is not a single BGP UPDATE")
        if len(message.withdrawn) + len(message.announced) != 1:
            raise MrtError("archive records must carry exactly one prefix")
        yield seconds + microseconds / 1_000_000, peer_ip, peer_asn, message


def read_records(stream: BinaryIO) -> Iterator[UpdateRecord]:
    """Deserialize records from ``stream`` (reverse of
    :func:`write_records`)."""
    for time, peer_ip, peer_asn, message in _read_frames(stream):
        yield flatten_update(time, peer_ip, peer_asn, message)[0]


def write_column_bodies(stream: BinaryIO, columns) -> int:
    """Serialize a :class:`~repro.core.columns.RecordColumns` batch
    (headers + BGP payloads, no file magic); returns the row count.

    The wire payload depends only on (prefix, attributes), so encoded
    payloads are cached per distinct ``(net, plen, attr_id)`` — a flap
    re-announcing the same bundle thousands of times encodes once.
    """
    from ..core.columns import NO_ATTR  # local: core.columns imports us

    table = columns.attrs
    data = columns.data
    no_attr = int(NO_ATTR)
    announce = int(UpdateKind.ANNOUNCE)
    payloads: Dict[Tuple[int, int, int], bytes] = {}
    pack = _RECORD_HEADER.pack
    write = stream.write
    for time, peer_id, peer_asn, net, plen, kind, attr_id in zip(
        data["time"].tolist(),
        data["peer_id"].tolist(),
        data["peer_asn"].tolist(),
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
        seconds, microseconds = _split_time(time)
        write(pack(seconds, microseconds, peer_asn, peer_id, len(payload)))
        write(payload)
    return len(data)


def write_columns(stream: BinaryIO, columns) -> int:
    """Columnar :func:`write_records`: serialize a whole batch.  The
    on-disk format is identical — readers cannot tell which tier wrote
    the archive."""
    stream.write(MAGIC)
    return write_column_bodies(stream, columns)


def read_column_batches(
    stream: BinaryIO,
    batch_size: int = 65536,
    attrs=None,
) -> Iterator:
    """Deserialize an archive into :class:`RecordColumns` batches of up
    to ``batch_size`` rows — no per-record Python objects are built.

    Pass a shared ``attrs`` :class:`AttributeTable` so every yielded
    batch (and any other batches in the campaign) indexes one
    vocabulary; by default the batches share a fresh table.
    """
    from ..core.columns import (
        NO_ATTR,
        RECORD_DTYPE,
        AttributeTable,
        RecordColumns,
    )

    table = attrs if attrs is not None else AttributeTable()
    no_attr = int(NO_ATTR)
    announce = int(UpdateKind.ANNOUNCE)
    withdraw = int(UpdateKind.WITHDRAW)
    rows: List[tuple] = []
    for time, peer_ip, peer_asn, message in _read_frames(stream):
        if message.announced:
            prefix = message.announced[0]
            kind = announce
            attr_id = table.intern(message.attributes)
        else:
            prefix = message.withdrawn[0]
            kind = withdraw
            attr_id = no_attr
        rows.append(
            (
                time, peer_ip, peer_asn,
                prefix.network, prefix.length, kind, attr_id,
            )
        )
        if len(rows) >= batch_size:
            yield RecordColumns(np.array(rows, dtype=RECORD_DTYPE), table)
            rows = []
    if rows:
        yield RecordColumns(np.array(rows, dtype=RECORD_DTYPE), table)
