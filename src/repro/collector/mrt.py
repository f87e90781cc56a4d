"""RFC 6396 MRT archives: the one codec for update and session logs.

The Routing Arbiter archived its BGP packet logs in the Multithreaded
Routing Toolkit (MRT) format, later standardized as RFC 6396, and the
paper's analysis pipeline decoded those files offline.  This module
writes and reads that framing (IPv4 peers, 2-byte AS numbers):

- **BGP4MP_ET** (type 17) is what it writes: the RFC's common header
  (timestamp, type, subtype, length) plus a microsecond timestamp, so
  an archived record keeps its time to the microsecond.  Subtype 1
  (MESSAGE) carries an update: the BGP4MP peer header (peer AS, local
  AS, interface index, address family, peer and local IPv4 address),
  then the raw RFC 4271 BGP UPDATE.  Subtype 0 (STATE_CHANGE) carries
  a session transition: the same peer header, then the old and new FSM
  state codes.  An update frame holds 32 bytes ahead of its UPDATE::

      0 seconds   4 type   6 subtype   8 length   12 microseconds
      16 peer AS  18 local AS  20 ifindex  22 AFI  24 peer IP
      28 local IP  32 BGP message

- **BGP4MP** (type 16), the same bodies at whole seconds with 28 bytes
  of header, is read too.

The three readers share one block scanner, and anything else in the
archive raises :class:`MrtError` rather than being mis-parsed.  Going
through real BGP wire encoding is deliberate: it exercises
:mod:`repro.bgp.wire` on every logged record, as the paper's tools
re-parsed real packets.  Only the functions that build or scan arrays
import NumPy, so writing a record list loads none.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from typing import (
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Tuple,
)

from ..bgp.messages import UpdateMessage
from ..bgp.wire import (
    WireError,
    decode_update,
    encode_message,
    update_message,
)
from ..net.prefix import Prefix
from .record import SessionEvent, UpdateKind, UpdateRecord, update_rows

__all__ = [
    "MrtError",
    "write_records",
    "write_columns",
    "write_state_changes",
    "read_records",
    "read_column_batches",
    "read_state_changes",
]

_BGP4MP = 16
_BGP4MP_ET = 17
_STATE_CHANGE = 0
_MESSAGE = 1
_AFI_IPV4 = 1
#: The collector's end of every logged session.
_LOCAL_AS = 65000
_LOCAL_IP = 0x0A0000FE  # 10.0.0.254

#: An ET frame up to its payload, as a NumPy record (the column writer
#: and the scanner) and as a struct (the record writers).
_FRAME_FIELDS = [
    ("seconds", ">u4"),
    ("type", ">u2"),
    ("subtype", ">u2"),
    ("length", ">u4"),
    ("microseconds", ">u4"),
    ("peer_asn", ">u2"),
    ("local_asn", ">u2"),
    ("ifindex", ">u2"),
    ("afi", ">u2"),
    ("peer_id", ">u4"),
    ("local_id", ">u4"),
]
_FRAME_HEADER = struct.Struct(">IHHIIHHHHII")
_FRAME_SIZE = _FRAME_HEADER.size
_HEADER_BYTES = struct.Struct(f"{_FRAME_SIZE}s")  # one packed header
_COMMON_SIZE = 12  # timestamp, type, subtype, length
_PEER_SIZE = 16  # peer AS, local AS, ifindex, AFI, peer IP, local IP
_LENGTH = struct.Struct(">8xI")  # the common header's length field alone
#: Body bytes ahead of an ET payload: microseconds and peer header.
_ET_HEAD = 4 + _PEER_SIZE
_MAX_MESSAGE = 4096  # BGP's largest message
_MAX_BODY = _ET_HEAD + _MAX_MESSAGE
_STATES = struct.Struct(">HH")  # old, new FSM state code

#: RFC 6396 FSM state codes (1=Idle .. 6=Established).
_FSM_CODES = {
    "IDLE": 1,
    "CONNECT": 2,
    "ACTIVE": 3,
    "OPEN_SENT": 4,
    "OPEN_CONFIRM": 5,
    "ESTABLISHED": 6,
}
_FSM_NAMES = {code: name for name, code in _FSM_CODES.items()}

#: ``RECORD_DTYPE``'s payload-determined fields, as the columnar
#: reader's memo keeps them per row of a distinct payload.
_ROW_TAIL = struct.Struct("=IBBI")  # net, plen, kind, attr_id
_ROW_TAIL_FIELDS = [
    ("net", "u4"), ("plen", "u1"), ("kind", "u1"), ("attr_id", "u4")
]

#: The reader takes the stream in blocks of this many bytes and walks
#: the frames of each block in place.
_BLOCK_BYTES = 1 << 18
#: Total payload bytes one read's memo may hold as keys.
_MEMO_KEY_BYTES = 1 << 20


class MrtError(ValueError):
    """Raised on malformed archive data."""


def _split_time(time: float) -> Tuple[int, int]:
    seconds = int(time)
    microseconds = int(round((time - seconds) * 1_000_000))
    if microseconds == 1_000_000:  # rounding spill-over
        seconds += 1
        microseconds = 0
    return seconds, microseconds


def _frame(
    time: float, subtype: int, peer_asn: int, peer_id: int, payload: bytes
) -> bytes:
    seconds, microseconds = _split_time(time)
    return _FRAME_HEADER.pack(
        seconds, _BGP4MP_ET, subtype, _ET_HEAD + len(payload),
        microseconds, peer_asn, _LOCAL_AS, 0, _AFI_IPV4, peer_id,
        _LOCAL_IP,
    ) + payload


def _update_message(prefix: Prefix, kind: int, attributes) -> UpdateMessage:
    if kind == UpdateKind.ANNOUNCE:
        return UpdateMessage(announced=(prefix,), attributes=attributes)
    return UpdateMessage(withdrawn=(prefix,))


def write_records(
    stream: BinaryIO, records: Iterable[UpdateRecord]
) -> int:
    """Write update records as BGP4MP_ET MESSAGE frames; returns the
    record count.

    Each record is framed individually (one NLRI per UPDATE) so the
    reader reproduces exact per-record timestamps; batching prefixes
    into shared UPDATEs is the transmitting router's business, not the
    archive's.
    """
    count = 0
    for record in records:
        message = _update_message(
            record.prefix, record.kind, record.attributes
        )
        stream.write(
            _frame(
                record.time, _MESSAGE, record.peer_asn, record.peer_id,
                encode_message(message),
            )
        )
        count += 1
    return count


def write_state_changes(
    stream: BinaryIO, events: Iterable[SessionEvent]
) -> int:
    """Write session transitions as BGP4MP_ET STATE_CHANGE frames;
    returns the event count."""
    count = 0
    for event in events:
        codes = _STATES.pack(
            _FSM_CODES[event.old_state], _FSM_CODES[event.new_state]
        )
        stream.write(
            _frame(
                event.time, _STATE_CHANGE, event.peer_asn, event.peer_id,
                codes,
            )
        )
        count += 1
    return count


def write_columns(stream: BinaryIO, columns) -> int:
    """Write a :class:`~repro.core.columns.RecordColumns` batch as the
    frames :func:`write_records` writes for its records, byte for byte;
    returns the row count.

    The wire payload depends only on (prefix, attributes), so encoded
    payloads are cached per distinct ``(net, plen, attr_id)`` — a flap
    re-announcing the same bundle thousands of times encodes once.
    The headers are packed for the whole batch at once
    (:func:`_split_time` over the time column) and the batch leaves in
    one write.
    """
    import numpy as np

    from ..core.columns import NO_ATTR  # local: core.columns needs NumPy

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
            attributes = table[attr_id] if kind == announce else None
            payload = payloads[key] = encode_message(
                _update_message(Prefix(net, plen), kind, attributes)
            )
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
    headers = np.zeros(len(data), dtype=np.dtype(_FRAME_FIELDS))
    headers["seconds"] = seconds
    headers["type"] = _BGP4MP_ET
    headers["subtype"] = _MESSAGE
    headers["length"] = _ET_HEAD + np.fromiter(
        map(len, bodies), dtype=np.uint32, count=len(bodies)
    )
    headers["microseconds"] = microseconds
    headers["peer_asn"] = data["peer_asn"]
    headers["local_asn"] = _LOCAL_AS
    headers["afi"] = _AFI_IPV4
    headers["peer_id"] = data["peer_id"]
    headers["local_id"] = _LOCAL_IP
    frames: List[bytes] = [b""] * (2 * len(bodies))
    frames[0::2] = map(
        itemgetter(0), _HEADER_BYTES.iter_unpack(headers.tobytes())
    )
    frames[1::2] = bodies
    stream.write(b"".join(frames))
    return len(data)


class PayloadMemo(dict):
    """Per-read memo ``payload bytes → row``: the one place an archived
    payload is decoded.

    The paper's traffic is mostly byte-for-byte repeats (WWDup, AADup),
    so each *distinct* payload is decoded and validated once per read
    and a repeat costs one dict lookup (``memo[payload]``).  On a miss
    ``row_of`` turns the payload into what the calling reader keeps per
    payload, or raises :class:`MrtError`; only accepted payloads are
    remembered.

    The memo is bounded by total key bytes: at ``_MEMO_KEY_BYTES`` it
    is cleared wholesale, so a hostile archive of all-distinct payloads
    pays a decode per frame and does not grow the process.
    """

    __slots__ = ("_row_of", "key_bytes")

    def __init__(self, row_of: Callable[[bytes], Any]) -> None:
        super().__init__()
        self._row_of = row_of
        self.key_bytes = 0

    def __missing__(self, payload: bytes) -> Any:
        row = self._row_of(payload)
        if self.key_bytes + len(payload) > _MEMO_KEY_BYTES:
            self.clear()
            self.key_bytes = 0
        self[payload] = row
        self.key_bytes += len(payload)
        return row


def _update_parts(payload: bytes) -> tuple:
    """The :func:`~repro.bgp.wire.decode_update` parts of a payload
    that must be exactly one BGP UPDATE."""
    try:
        parts, consumed = decode_update(payload)
    except WireError as exc:
        raise MrtError(f"bad BGP payload: {exc}") from exc
    if consumed != len(payload) or parts is None:
        raise MrtError("record payload is not a single BGP UPDATE")
    return parts


def _update_rows(payload: bytes) -> tuple:
    """The :func:`update_rows` of a payload that must be exactly one
    BGP UPDATE."""
    return update_rows(update_message(*_update_parts(payload)))


def _state_pair(payload: bytes) -> Tuple[str, str]:
    if len(payload) != _STATES.size:
        raise MrtError(f"bad STATE_CHANGE payload length {len(payload)}")
    old, new = _STATES.unpack(payload)
    if old not in _FSM_NAMES or new not in _FSM_NAMES:
        raise MrtError(f"unknown FSM state code {old}/{new}")
    return _FSM_NAMES[old], _FSM_NAMES[new]


def _check_frames(buffer: bytes, offsets: List[int], subtype: int):
    """Gather, with NumPy, the headers of the frames at ``offsets`` in
    ``buffer`` and check them: type 16 or 17 with ``subtype``, a body
    that holds the peer header and at most BGP's largest message, IPv4.

    Returns ``(frames, plain, failed, message)``: a ``_FRAME_FIELDS``
    record per frame (microseconds 0 on type 16), which frames are
    type 16, the index of the first frame that fails (``len(offsets)``
    when none does) and its error message.
    """
    import numpy as np

    starts = np.fromiter(offsets, dtype=np.intp, count=len(offsets))
    # Every window below, a type-16 peer header's too, lies in ``buffer``.
    reach = _COMMON_SIZE + _FRAME_SIZE
    if offsets[-1] + reach > len(buffer):
        buffer += bytes(reach)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.frombuffer(buffer, dtype=np.uint8), _FRAME_SIZE
    )
    heads = windows[starts]
    frames = heads.view(np.dtype(_FRAME_FIELDS))[:, 0]
    plain = frames["type"] == _BGP4MP
    if plain.any():  # no microseconds: the peer header is 4 bytes early
        heads[plain, -_PEER_SIZE:] = windows[
            starts[plain] + _COMMON_SIZE, :_PEER_SIZE
        ]
        frames["microseconds"][plain] = 0
    kind = (plain | (frames["type"] == _BGP4MP_ET)) & (
        frames["subtype"] == subtype
    )
    length = frames["length"].astype(np.intp)
    ahead = np.where(plain, _PEER_SIZE, _ET_HEAD)  # body ahead of payload
    sized = (length >= ahead) & (length <= ahead + _MAX_MESSAGE)
    good = kind & sized & (frames["afi"] == _AFI_IPV4)
    if good.all():
        return frames, plain, len(offsets), None
    failed = int(good.argmin())
    frame = frames[failed]
    if not kind[failed]:
        message = "unsupported MRT record type {type}/{subtype}"
    elif not sized[failed]:
        message = "bad BGP4MP body length {length}"
    else:
        message = "unsupported address family {afi}"
    return frames, plain, failed, message.format(
        type=frame["type"], subtype=frame["subtype"],
        length=frame["length"], afi=frame["afi"],
    )


def _scan_frames(
    stream: BinaryIO, subtype: int, memo: PayloadMemo
) -> Iterator[Tuple[Any, list]]:
    """Validate and decode an archive block by block: the one frame
    walk every reader consumes.

    Per frame, Python unpacks the common header's length and looks up
    in ``memo`` the bytes where a BGP4MP_ET frame holds its payload;
    per block, :func:`_check_frames` checks the headers.  A block with
    a type-16 frame, a failed lookup or a bad header is then settled
    frame by frame, so the first fault in stream order is the one
    raised, a frame's header ahead of its payload.  Yields ``(frames,
    rows)`` per block: ``frames`` a ``_FRAME_FIELDS`` record per frame
    and ``rows[i]`` its payload's memo row.  A frame that straddles a
    block boundary is carried into the next block; the frames ahead of
    a fault are yielded before it is raised.
    """
    read = stream.read
    length_of = _LENGTH.unpack_from
    lookup = memo.__getitem__
    common, ahead = _COMMON_SIZE, _FRAME_SIZE
    carry = b""
    while True:
        block = read(_BLOCK_BYTES)
        buffer = carry + block if carry else block
        end = len(buffer)
        offsets: List[int] = []
        rows: list = []
        add_offset, add_row = offsets.append, rows.append
        misses = 0
        position = 0
        last = end - common  # the last offset a header fits at
        while position <= last:
            stop = position + common + length_of(buffer, position)[0]
            if stop > end:
                break
            try:
                add_row(lookup(buffer[position + ahead:stop]))
            except MrtError:  # type 16, or a fault: settled below
                add_row(None)
                misses += 1
            add_offset(position)
            position = stop
        if position <= last and length_of(buffer, position)[0] > _MAX_BODY:
            offsets.append(position)  # fails the check; never carried
        fault = None
        if offsets:
            frames, plain, failed, message = _check_frames(
                buffer, offsets, subtype
            )
            if misses or failed < len(offsets) or plain.any():
                stops = offsets[1:] + [position]
                try:
                    for i in range(min(failed, len(rows))):
                        if plain[i]:
                            first = offsets[i] + _COMMON_SIZE + _PEER_SIZE
                            rows[i] = lookup(buffer[first:stops[i]])
                        elif rows[i] is None:  # raises the payload's fault
                            lookup(buffer[offsets[i] + _FRAME_SIZE:stops[i]])
                except MrtError as exc:
                    fault = exc
                    failed = i
                else:
                    if failed < len(offsets):
                        fault = MrtError(message)
                del rows[failed:]
            if rows:
                yield frames[:len(rows)], rows
        if fault is not None:
            raise fault
        carry = buffer[position:]
        if not block:  # end of stream: whatever is carried is cut short
            if not carry:
                return
            raise MrtError(
                "truncated MRT header"
                if len(carry) < _COMMON_SIZE
                else "truncated MRT record"
            )


def _frame_rows(
    stream: BinaryIO, subtype: int, row_of: Callable[[bytes], Any]
) -> Iterator[tuple]:
    """``(time, peer_id, peer_asn, row)`` per frame of ``subtype``."""
    for frames, rows in _scan_frames(stream, subtype, PayloadMemo(row_of)):
        times = frames["seconds"] + frames["microseconds"] / 1_000_000
        yield from zip(
            times.tolist(),
            frames["peer_id"].tolist(),
            frames["peer_asn"].tolist(),
            rows,
        )


def read_records(stream: BinaryIO) -> Iterator[UpdateRecord]:
    """Read BGP4MP(_ET) MESSAGE frames back into update records: one
    per :func:`update_rows` row of each UPDATE, sharing its frame's
    time and peer (an End-of-RIB UPDATE gives none)."""
    for time, peer_id, peer_asn, rows in _frame_rows(
        stream, _MESSAGE, _update_rows
    ):
        for prefix, kind, attributes in rows:
            yield UpdateRecord(
                time, peer_id, peer_asn, prefix, kind, attributes
            )


def read_state_changes(stream: BinaryIO) -> Iterator[SessionEvent]:
    """Read BGP4MP(_ET) STATE_CHANGE frames back into session events."""
    for time, peer_id, peer_asn, (old, new) in _frame_rows(
        stream, _STATE_CHANGE, _state_pair
    ):
        yield SessionEvent(time, peer_id, peer_asn, old, new)


def read_column_batches(
    stream: BinaryIO,
    batch_size: int = 65536,
    attrs=None,
) -> Iterator:
    """Read BGP4MP(_ET) MESSAGE frames into :class:`RecordColumns`
    batches of ``batch_size`` rows (the last may be shorter), the rows
    :func:`read_records` reads.  No per-record Python objects are
    built: a frame costs a header walk and a memo lookup, and the
    columns are filled per block with NumPy.

    Pass a shared ``attrs`` :class:`AttributeTable` so every yielded
    batch (and any other batches in the campaign) indexes one
    vocabulary; by default the batches share a fresh table.  Attribute
    ids are interned in the order the archive first shows them.
    """
    import numpy as np

    from ..core.columns import (
        NO_ATTR,
        RECORD_DTYPE,
        AttributeTable,
        RecordColumns,
    )

    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    table = attrs if attrs is not None else AttributeTable()
    intern_tuple = table.intern_tuple
    no_attr = int(NO_ATTR)
    withdraw = int(UpdateKind.WITHDRAW)
    announce = int(UpdateKind.ANNOUNCE)
    pack = _ROW_TAIL.pack
    tail_dtype = np.dtype(_ROW_TAIL_FIELDS)

    several = False  # has any payload so far held other than one prefix?

    def row_of(payload: bytes) -> bytes:
        nonlocal several
        withdrawn, announced, bundle = _update_parts(payload)
        tails = [pack(net, plen, withdraw, no_attr) for net, plen in withdrawn]
        if announced:
            attr_id = intern_tuple(bundle)
            tails += [pack(net, plen, announce, attr_id)
                      for net, plen in announced]
        if len(tails) != 1:
            several = True
        return b"".join(tails)

    pending: List[Any] = []
    count = 0
    for frames, tails in _scan_frames(
        stream, _MESSAGE, PayloadMemo(row_of)
    ):
        tail = np.frombuffer(b"".join(tails), dtype=tail_dtype)
        if several:  # each frame's rows share its time and peer
            sizes = np.fromiter(map(len, tails), np.intp, len(tails))
            frames = np.repeat(frames, sizes // _ROW_TAIL.size)
        data = np.empty(len(tail), dtype=RECORD_DTYPE)
        data["time"] = frames["seconds"] + frames["microseconds"] / 1_000_000
        data["peer_id"] = frames["peer_id"]
        data["peer_asn"] = frames["peer_asn"]
        for name in tail_dtype.names:
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
