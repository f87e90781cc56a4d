"""BGP-4 wire-format codec (RFC 4271 / RFC 1997 subset).

The Routing Arbiter's collectors logged raw BGP packets; the paper's
toolchain decoded them offline.  To exercise the same code path, our
collector can log updates in actual BGP wire format, and this module is
the codec: a faithful RFC 4271 encoding of the OPEN / UPDATE /
KEEPALIVE / NOTIFICATION messages used by the simulator, including the
classic two-byte-AS AS_PATH encoding and the RFC 1997 COMMUNITIES
attribute.

Only the features the reproduction exercises are implemented; anything
else (multiprotocol NLRI, 4-byte ASes, AS_SETs) raises
:class:`WireError` rather than silently decoding wrong.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from ..net.prefix import Prefix
from .attributes import Origin, PathAttributes, bundle_attributes, interned
from .messages import (
    KeepAliveMessage,
    MessageType,
    NotificationCode,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)

__all__ = [
    "WireError",
    "encode_message",
    "decode_message",
    "decode_update",
    "update_message",
    "encode_message_cached",
    "decode_message_cached",
    "HEADER_SIZE",
]


class WireError(ValueError):
    """Raised for malformed or unsupported wire data."""


HEADER_SIZE = 19
_MARKER = b"\xff" * 16
_MAX_MESSAGE = 4096

# Path attribute type codes.
_ATTR_ORIGIN = 1
_ATTR_AS_PATH = 2
_ATTR_NEXT_HOP = 3
_ATTR_MED = 4
_ATTR_LOCAL_PREF = 5
_ATTR_ATOMIC_AGGREGATE = 6
_ATTR_AGGREGATOR = 7
_ATTR_COMMUNITIES = 8

# Attribute flag bits.
_FLAG_OPTIONAL = 0x80
_FLAG_TRANSITIVE = 0x40
_FLAG_EXTENDED_LENGTH = 0x10

_AS_SEQUENCE = 2


# ---------------------------------------------------------------------------
# prefix (NLRI) encoding
# ---------------------------------------------------------------------------

def _encode_nlri(prefix: Prefix) -> bytes:
    """Encode one prefix as ``length, ceil(length/8) address bytes``."""
    nbytes = (prefix.length + 7) // 8
    addr = struct.pack(">I", prefix.network)[:nbytes]
    return bytes([prefix.length]) + addr


# ---------------------------------------------------------------------------
# path attribute encoding
# ---------------------------------------------------------------------------

def _encode_attribute(flags: int, type_code: int, value: bytes) -> bytes:
    if len(value) > 255:
        flags |= _FLAG_EXTENDED_LENGTH
        header = struct.pack(">BBH", flags, type_code, len(value))
    else:
        header = struct.pack(">BBB", flags, type_code, len(value))
    return header + value


def _encode_attributes(attrs: PathAttributes) -> bytes:
    chunks: List[bytes] = []
    chunks.append(
        _encode_attribute(
            _FLAG_TRANSITIVE, _ATTR_ORIGIN, bytes([int(attrs.origin)])
        )
    )
    path_value = b""
    if attrs.as_path:
        for asn in attrs.as_path:
            if asn >= 1 << 16:
                raise WireError("4-byte AS numbers not supported")
        path_value = (
            bytes([_AS_SEQUENCE, len(attrs.as_path)])
            + b"".join(struct.pack(">H", asn) for asn in attrs.as_path)
        )
    chunks.append(
        _encode_attribute(_FLAG_TRANSITIVE, _ATTR_AS_PATH, path_value)
    )
    chunks.append(
        _encode_attribute(
            _FLAG_TRANSITIVE, _ATTR_NEXT_HOP, struct.pack(">I", attrs.next_hop)
        )
    )
    if attrs.med is not None:
        chunks.append(
            _encode_attribute(
                _FLAG_OPTIONAL, _ATTR_MED, struct.pack(">I", attrs.med)
            )
        )
    if attrs.local_pref is not None:
        chunks.append(
            _encode_attribute(
                _FLAG_TRANSITIVE,
                _ATTR_LOCAL_PREF,
                struct.pack(">I", attrs.local_pref),
            )
        )
    if attrs.atomic_aggregate:
        chunks.append(
            _encode_attribute(_FLAG_TRANSITIVE, _ATTR_ATOMIC_AGGREGATE, b"")
        )
    if attrs.aggregator is not None:
        asn, router_id = attrs.aggregator
        chunks.append(
            _encode_attribute(
                _FLAG_OPTIONAL | _FLAG_TRANSITIVE,
                _ATTR_AGGREGATOR,
                struct.pack(">HI", asn, router_id),
            )
        )
    if attrs.communities:
        chunks.append(
            _encode_attribute(
                _FLAG_OPTIONAL | _FLAG_TRANSITIVE,
                _ATTR_COMMUNITIES,
                b"".join(
                    struct.pack(">I", c) for c in sorted(attrs.communities)
                ),
            )
        )
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# UPDATE decoding: one tuple-level core
# ---------------------------------------------------------------------------
#
# An UPDATE decodes to plain tuples: its withdrawn and announced
# prefixes as ``(network, length)`` pairs and its attribute bundle as
# the :func:`~repro.bgp.attributes.attribute_tuple` it stands for.
# :func:`decode_message` builds its objects from them; the archive
# reader interns the bundle and packs the pairs as they are.

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_AGGREGATOR = struct.Struct(">HI")

#: The bundle of an UPDATE without path attributes (``PathAttributes()``).
_NO_ATTRIBUTES = (0, (), int(Origin.IGP), None, None, (), False, None)


def _decode_prefixes(
    data: bytes, offset: int, stop: int
) -> Tuple[List[Tuple[int, int]], int]:
    """The NLRI from ``offset`` while it is below ``stop``, as
    ``(network, length)`` pairs; returns (pairs, next offset), which
    may overrun ``stop`` but never ``data``."""
    end = len(data)
    pairs = []
    while offset < stop:
        length = data[offset]
        if length > 32:
            raise WireError(f"NLRI length {length} > 32")
        start = offset + 1
        offset = start + ((length + 7) >> 3)
        if offset > end:
            raise WireError("truncated NLRI address bytes")
        network = int.from_bytes(data[start:offset], "big") << (
            32 - 8 * (offset - start)
        )
        if network & (0xFFFFFFFF >> length):
            raise WireError("NLRI host bits set")
        pairs.append((network, length))
    return pairs, offset


def _decode_as_path(data: bytes, offset: int, end: int) -> tuple:
    asns: tuple = ()
    while offset < end:
        if offset + 2 > end:
            raise WireError("truncated AS_PATH segment header")
        seg_type, count = data[offset], data[offset + 1]
        offset += 2
        if seg_type != _AS_SEQUENCE:
            raise WireError(f"unsupported AS_PATH segment type {seg_type}")
        stop = offset + 2 * count
        if stop > end:
            raise WireError("truncated AS_PATH segment")
        asns += struct.unpack_from(f">{count}H", data, offset)
        offset = stop
    if 0 in asns:  # RFC 7607: AS 0 in an AS_PATH is malformed
        raise WireError("AS_PATH holds AS 0")
    return asns


def _decode_attributes(data: bytes, offset: int, end: int) -> tuple:
    """The bundle of the path attributes in ``data[offset:end]``."""
    origin = int(Origin.IGP)
    as_path: tuple = ()
    next_hop = 0
    med = None
    local_pref = None
    atomic = False
    aggregator = None
    communities: tuple = ()
    while offset < end:
        if offset + 2 > end:
            raise WireError("truncated attribute header")
        flags, type_code = data[offset], data[offset + 1]
        offset += 2
        if flags & _FLAG_EXTENDED_LENGTH:
            if offset + 2 > end:
                raise WireError("truncated extended length")
            (length,) = _U16.unpack_from(data, offset)
            offset += 2
        else:
            if offset + 1 > end:
                raise WireError("truncated attribute length")
            length = data[offset]
            offset += 1
        start = offset
        offset += length
        if offset > end:
            raise WireError("truncated attribute value")
        if type_code == _ATTR_ORIGIN:
            if length != 1 or data[start] > 2:
                raise WireError("bad ORIGIN")
            origin = data[start]
        elif type_code == _ATTR_AS_PATH:
            as_path = _decode_as_path(data, start, offset)
        elif type_code == _ATTR_NEXT_HOP:
            if length != 4:
                raise WireError("bad NEXT_HOP length")
            (next_hop,) = _U32.unpack_from(data, start)
        elif type_code == _ATTR_MED:
            if length != 4:
                raise WireError("bad MED length")
            (med,) = _U32.unpack_from(data, start)
        elif type_code == _ATTR_LOCAL_PREF:
            if length != 4:
                raise WireError("bad LOCAL_PREF length")
            (local_pref,) = _U32.unpack_from(data, start)
        elif type_code == _ATTR_ATOMIC_AGGREGATE:
            if length:
                raise WireError("ATOMIC_AGGREGATE carries no data")
            atomic = True
        elif type_code == _ATTR_AGGREGATOR:
            if length != 6:
                raise WireError("bad AGGREGATOR length")
            aggregator = _AGGREGATOR.unpack_from(data, start)
        elif type_code == _ATTR_COMMUNITIES:
            if length % 4:
                raise WireError("bad COMMUNITIES length")
            communities = tuple(sorted(set(
                struct.unpack_from(f">{length >> 2}I", data, start)
            )))
        else:
            raise WireError(f"unsupported attribute type {type_code}")
    return (next_hop, as_path, origin, med, local_pref, communities,
            atomic, aggregator)


def _decode_update(body: bytes) -> tuple:
    """``(withdrawn, announced, bundle)`` of an UPDATE body: the one
    UPDATE decoder, and every check a received UPDATE meets."""
    if len(body) < 4:
        raise WireError("truncated UPDATE")
    withdrawn_end = 2 + _U16.unpack_from(body, 0)[0]
    if withdrawn_end + 2 > len(body):
        raise WireError("UPDATE withdrawn length overruns message")
    withdrawn, offset = _decode_prefixes(body, 2, withdrawn_end)
    if offset != withdrawn_end:
        raise WireError("withdrawn routes length mismatch")
    attrs_end = offset + 2 + _U16.unpack_from(body, offset)[0]
    if attrs_end > len(body):
        raise WireError("UPDATE attribute length overruns message")
    bundle = (
        _decode_attributes(body, offset + 2, attrs_end)
        if attrs_end > offset + 2
        else _NO_ATTRIBUTES
    )
    announced, _ = _decode_prefixes(body, attrs_end, len(body))
    return withdrawn, announced, bundle


def update_message(withdrawn, announced, bundle) -> UpdateMessage:
    """The :class:`UpdateMessage` of :func:`decode_update`'s parts."""
    return UpdateMessage(
        withdrawn=tuple(Prefix(*pair) for pair in withdrawn),
        announced=tuple(Prefix(*pair) for pair in announced),
        attributes=interned(bundle_attributes(bundle)),
    )


# ---------------------------------------------------------------------------
# message bodies
# ---------------------------------------------------------------------------

def _encode_open(msg: OpenMessage) -> bytes:
    hold = int(round(msg.hold_time))
    if not 0 <= hold <= 0xFFFF:
        raise WireError(f"hold time {msg.hold_time} out of range")
    if not 0 < msg.asn < 1 << 16:
        raise WireError(f"AS number {msg.asn} out of range")
    return struct.pack(
        ">BHHIB", msg.version, msg.asn, hold, msg.bgp_identifier, 0
    )


def _decode_open(body: bytes) -> OpenMessage:
    if len(body) < 10:
        raise WireError("truncated OPEN")
    version, asn, hold, identifier, opt_len = struct.unpack_from(
        ">BHHIB", body
    )
    if version != 4:
        raise WireError(f"unsupported BGP version {version}")
    if len(body) != 10 + opt_len:
        raise WireError("OPEN optional parameter length mismatch")
    return OpenMessage(
        asn=asn,
        hold_time=float(hold),
        bgp_identifier=identifier,
        version=version,
    )


def _encode_update(msg: UpdateMessage) -> bytes:
    withdrawn = b"".join(_encode_nlri(p) for p in msg.withdrawn)
    if msg.announced:
        attrs = _encode_attributes(msg.attributes)
        nlri = b"".join(_encode_nlri(p) for p in msg.announced)
    else:
        attrs = b""
        nlri = b""
    return (
        struct.pack(">H", len(withdrawn))
        + withdrawn
        + struct.pack(">H", len(attrs))
        + attrs
        + nlri
    )


def _encode_notification(msg: NotificationMessage) -> bytes:
    return bytes([int(msg.code), msg.subcode]) + msg.data


def _decode_notification(body: bytes) -> NotificationMessage:
    if len(body) < 2:
        raise WireError("truncated NOTIFICATION")
    try:
        code = NotificationCode(body[0])
    except ValueError as exc:
        raise WireError(f"unknown notification code {body[0]}") from exc
    return NotificationMessage(code=code, subcode=body[1], data=bytes(body[2:]))


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def encode_message(message) -> bytes:
    """Encode any BGP message object to its RFC 4271 wire form."""
    if isinstance(message, OpenMessage):
        body = _encode_open(message)
    elif isinstance(message, UpdateMessage):
        body = _encode_update(message)
    elif isinstance(message, KeepAliveMessage):
        body = b""
    elif isinstance(message, NotificationMessage):
        body = _encode_notification(message)
    else:
        raise WireError(f"cannot encode {type(message).__name__}")
    total = HEADER_SIZE + len(body)
    if total > _MAX_MESSAGE:
        raise WireError(f"message size {total} exceeds {_MAX_MESSAGE}")
    header = _MARKER + struct.pack(">HB", total, int(message.type))
    return header + body


def _header(data: bytes) -> Tuple[int, int]:
    """The length and type code of the message ``data`` starts with."""
    if len(data) < HEADER_SIZE:
        raise WireError("truncated header")
    if data[:16] != _MARKER:
        raise WireError("bad marker")
    total, type_code = struct.unpack_from(">HB", data, 16)
    if total < HEADER_SIZE or total > _MAX_MESSAGE:
        raise WireError(f"bad message length {total}")
    if len(data) < total:
        raise WireError("truncated message body")
    return total, type_code


def decode_message(data: bytes):
    """Decode one wire message; returns ``(message, bytes_consumed)``.

    Raises :class:`WireError` on malformed input.  ``data`` may contain
    trailing bytes (the start of the next message on the stream).
    """
    total, type_code = _header(data)
    body = data[HEADER_SIZE:total]
    if type_code == MessageType.OPEN:
        return _decode_open(body), total
    if type_code == MessageType.UPDATE:
        return update_message(*_decode_update(body)), total
    if type_code == MessageType.KEEPALIVE:
        if body:
            raise WireError("KEEPALIVE carries no body")
        return KeepAliveMessage(), total
    if type_code == MessageType.NOTIFICATION:
        return _decode_notification(body), total
    raise WireError(f"unknown message type {type_code}")


def decode_update(data: bytes):
    """Decode one wire message to plain tuples; returns ``(parts,
    bytes_consumed)``.

    For an UPDATE, ``parts`` is ``(withdrawn, announced, bundle)``: the
    prefixes as lists of ``(network, length)`` pairs and the attribute
    bundle as its :func:`~repro.bgp.attributes.attribute_tuple`; no
    object is built.  Any other message is decoded and checked as
    :func:`decode_message` does, and ``parts`` is ``None``.  Raises
    :class:`WireError` exactly where :func:`decode_message` does.
    """
    total, type_code = _header(data)
    if type_code != MessageType.UPDATE:
        return None, decode_message(data)[1]
    return _decode_update(data[HEADER_SIZE:total]), total


# ---------------------------------------------------------------------------
# memoized codec
# ---------------------------------------------------------------------------
#
# Table dumps and flap storms send the *same* UPDATE to many peers and
# re-send it every flap cycle; every message type is a frozen dataclass
# (hashable, immutable), so encode results can be memoized on the
# message and decode results on the exact wire bytes.  Sharing the
# decoded message object across deliveries is safe for the same reason
# interning PathAttributes is: consumers only ever read them.  Both
# caches are bounded and cleared wholesale at the limit so adversarial
# traffic (fuzzing) cannot grow them without bound.

_CODEC_CACHE_LIMIT = 4096

_encode_cache: dict = {}
_decode_cache: dict = {}


def encode_message_cached(message) -> bytes:
    """Memoizing :func:`encode_message` for repeated identical messages."""
    cached = _encode_cache.get(message)
    if cached is None:
        cached = encode_message(message)
        if len(_encode_cache) >= _CODEC_CACHE_LIMIT:
            _encode_cache.clear()
        _encode_cache[message] = cached
    return cached


def decode_message_cached(data: bytes):
    """Memoizing :func:`decode_message`; same ``(message, consumed)``
    contract, keyed on the exact wire bytes."""
    cached = _decode_cache.get(data)
    if cached is None:
        cached = decode_message(data)
        if len(_decode_cache) >= _CODEC_CACHE_LIMIT:
            _decode_cache.clear()
        _decode_cache[data] = cached
    return cached
