"""RFC 6396 MRT interoperability format.

The Routing Arbiter archives used the Multithreaded Routing Toolkit's
format, later standardized as RFC 6396.  :mod:`repro.collector.mrt`
keeps a compact internal flavour; this module writes and reads the
*standard* framing so archives are interoperable in principle with
classic tooling (``bgpdump``-era readers):

- **BGP4MP / BGP4MP_MESSAGE** (type 16, subtype 1) for update streams:
  the RFC's common header (timestamp, type, subtype, length) followed
  by peer/local AS numbers, interface index, address family, peer and
  local IPv4 addresses, and the raw RFC 4271 BGP message.
- **BGP4MP / BGP4MP_STATE_CHANGE** (type 16, subtype 0) for peering
  session transitions: the same peer header followed by the old and
  new FSM state codes.

Only the IPv4 forms the reproduction needs are implemented; anything
else raises :class:`~repro.bgp.wire.WireError` on read rather than
silently mis-parsing.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Iterator

from ..bgp.messages import UpdateMessage
from ..bgp.wire import WireError, encode_message
from .mrt import PayloadMemo
from .record import SessionEvent, UpdateKind, UpdateRecord, update_rows

__all__ = [
    "MRT_TYPE_BGP4MP",
    "write_bgp4mp",
    "read_bgp4mp",
    "write_state_changes",
    "read_state_changes",
]

_COMMON_HEADER = struct.Struct(">IHHI")  # timestamp, type, subtype, length

MRT_TYPE_BGP4MP = 16
_SUBTYPE_BGP4MP_MESSAGE = 1
_AFI_IPV4 = 1

# BGP4MP_MESSAGE body prefix: peer AS, local AS, ifindex, AF.
_BGP4MP_HEADER = struct.Struct(">HHHH")


def _write_common_header(
    stream: BinaryIO, timestamp: float, mrt_type: int, subtype: int,
    body: bytes,
) -> None:
    stream.write(
        _COMMON_HEADER.pack(int(timestamp), mrt_type, subtype, len(body))
    )
    stream.write(body)


def _read_common_header(stream: BinaryIO):
    header = stream.read(_COMMON_HEADER.size)
    if not header:
        return None
    if len(header) != _COMMON_HEADER.size:
        raise WireError("truncated MRT common header")
    timestamp, mrt_type, subtype, length = _COMMON_HEADER.unpack(header)
    body = stream.read(length)
    if len(body) != length:
        raise WireError("truncated MRT record body")
    return timestamp, mrt_type, subtype, body


# ---------------------------------------------------------------------------
# BGP4MP update streams
# ---------------------------------------------------------------------------

def write_bgp4mp(
    stream: BinaryIO,
    records: Iterable[UpdateRecord],
    local_as: int = 65000,
    local_ip: int = 0x0A0000FE,
) -> int:
    """Write update records as RFC 6396 BGP4MP_MESSAGE entries.

    Returns the record count.  Each update record becomes one MRT
    record carrying a single-prefix BGP UPDATE (sub-second timing is
    truncated to seconds, as the classic format requires).
    """
    count = 0
    for record in records:
        if record.kind is UpdateKind.ANNOUNCE:
            message = UpdateMessage(
                announced=(record.prefix,), attributes=record.attributes
            )
        else:
            message = UpdateMessage(withdrawn=(record.prefix,))
        bgp_payload = encode_message(message)
        body = (
            _BGP4MP_HEADER.pack(
                record.peer_asn, local_as, 0, _AFI_IPV4
            )
            + struct.pack(">II", record.peer_id, local_ip)
            + bgp_payload
        )
        _write_common_header(
            stream, record.time, MRT_TYPE_BGP4MP,
            _SUBTYPE_BGP4MP_MESSAGE, body,
        )
        count += 1
    return count


def read_bgp4mp(stream: BinaryIO) -> Iterator[UpdateRecord]:
    """Read BGP4MP_MESSAGE entries back into update records.  Each
    distinct BGP payload is decoded once per read."""
    memo = PayloadMemo(update_rows)
    while True:
        parsed = _read_common_header(stream)
        if parsed is None:
            return
        timestamp, mrt_type, subtype, body = parsed
        if mrt_type != MRT_TYPE_BGP4MP or subtype != _SUBTYPE_BGP4MP_MESSAGE:
            raise WireError(
                f"unsupported MRT record type {mrt_type}/{subtype}"
            )
        if len(body) < _BGP4MP_HEADER.size + 8:
            raise WireError("truncated BGP4MP body")
        peer_as, _local_as, _ifindex, afi = _BGP4MP_HEADER.unpack_from(body)
        if afi != _AFI_IPV4:
            raise WireError(f"unsupported address family {afi}")
        peer_ip, _local_ip = struct.unpack_from(
            ">II", body, _BGP4MP_HEADER.size
        )
        rows = memo.resolve(body[_BGP4MP_HEADER.size + 8:])
        if rows is None:
            raise WireError("BGP4MP payload is not a single BGP UPDATE")
        time = float(timestamp)
        for prefix, kind, attributes in rows:
            yield UpdateRecord(
                time, peer_ip, peer_as, prefix, kind, attributes
            )


# ---------------------------------------------------------------------------
# BGP4MP state changes (session transitions)
# ---------------------------------------------------------------------------

_SUBTYPE_STATE_CHANGE = 0

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


def write_state_changes(
    stream: BinaryIO,
    events: Iterable[SessionEvent],
    local_as: int = 65000,
    local_ip: int = 0x0A0000FE,
) -> int:
    """Write session transitions as BGP4MP_STATE_CHANGE records."""
    count = 0
    for event in events:
        body = (
            _BGP4MP_HEADER.pack(event.peer_asn, local_as, 0, _AFI_IPV4)
            + struct.pack(">II", event.peer_id, local_ip)
            + struct.pack(
                ">HH",
                _FSM_CODES[event.old_state],
                _FSM_CODES[event.new_state],
            )
        )
        _write_common_header(
            stream, event.time, MRT_TYPE_BGP4MP, _SUBTYPE_STATE_CHANGE, body
        )
        count += 1
    return count


def read_state_changes(stream: BinaryIO) -> Iterator[SessionEvent]:
    """Read BGP4MP_STATE_CHANGE records back into session events."""
    while True:
        parsed = _read_common_header(stream)
        if parsed is None:
            return
        timestamp, mrt_type, subtype, body = parsed
        if mrt_type != MRT_TYPE_BGP4MP or subtype != _SUBTYPE_STATE_CHANGE:
            raise WireError(
                f"unsupported MRT record type {mrt_type}/{subtype}"
            )
        if len(body) != _BGP4MP_HEADER.size + 8 + 4:
            raise WireError("bad STATE_CHANGE body length")
        peer_as, _local_as, _ifindex, afi = _BGP4MP_HEADER.unpack_from(body)
        if afi != _AFI_IPV4:
            raise WireError(f"unsupported address family {afi}")
        peer_ip, _local_ip = struct.unpack_from(
            ">II", body, _BGP4MP_HEADER.size
        )
        old_code, new_code = struct.unpack_from(
            ">HH", body, _BGP4MP_HEADER.size + 8
        )
        try:
            old_state = _FSM_NAMES[old_code]
            new_state = _FSM_NAMES[new_code]
        except KeyError as exc:
            raise WireError(f"unknown FSM state code: {exc}") from exc
        yield SessionEvent(
            time=float(timestamp),
            peer_id=peer_ip,
            peer_asn=peer_as,
            old_state=old_state,
            new_state=new_state,
        )
