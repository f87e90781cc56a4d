"""Unit and property tests for the BGP wire codec."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AsPath,
    Origin,
    PathAttributes,
    attribute_tuple,
)
from repro.bgp.messages import (
    KeepAliveMessage,
    NotificationCode,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.bgp.wire import (
    HEADER_SIZE,
    WireError,
    decode_message,
    decode_update,
    encode_message,
)
from repro.collector.record import UpdateKind, update_rows
from repro.net.prefix import Prefix

from .test_prefix import prefixes


def roundtrip(msg):
    data = encode_message(msg)
    decoded, consumed = decode_message(data)
    assert consumed == len(data)
    return decoded


class TestOpen:
    def test_roundtrip(self):
        msg = OpenMessage(asn=701, hold_time=90.0, bgp_identifier=0x0A000001)
        assert roundtrip(msg) == msg

    def test_rejects_bad_version(self):
        data = bytearray(encode_message(OpenMessage(asn=1)))
        data[HEADER_SIZE] = 3  # version byte
        with pytest.raises(WireError):
            decode_message(bytes(data))

    def test_rejects_oversized_hold(self):
        with pytest.raises(WireError):
            encode_message(OpenMessage(asn=1, hold_time=1e9))


class TestKeepaliveAndNotification:
    def test_keepalive_roundtrip(self):
        assert roundtrip(KeepAliveMessage()) == KeepAliveMessage()

    def test_keepalive_is_header_only(self):
        assert len(encode_message(KeepAliveMessage())) == HEADER_SIZE

    def test_notification_roundtrip(self):
        msg = NotificationMessage(
            NotificationCode.HOLD_TIMER_EXPIRED, subcode=1, data=b"xy"
        )
        assert roundtrip(msg) == msg

    def test_notification_cease(self):
        assert roundtrip(NotificationMessage(NotificationCode.CEASE)).code is (
            NotificationCode.CEASE
        )


class TestUpdate:
    def _attrs(self):
        return PathAttributes(
            as_path=AsPath((701, 1239, 3561)),
            next_hop=0x0A000001,
            origin=Origin.EGP,
            med=120,
            local_pref=200,
            communities=frozenset({0xFFFFFF01, 0x02BC0001}),
            atomic_aggregate=True,
            aggregator=(701, 0x0A0000FF),
        )

    def test_full_roundtrip(self):
        msg = UpdateMessage(
            withdrawn=(Prefix.parse("10.0.0.0/8"), Prefix.parse("192.0.2.0/24")),
            announced=(Prefix.parse("198.51.100.0/24"),),
            attributes=self._attrs(),
        )
        assert roundtrip(msg) == msg

    def test_withdrawal_only(self):
        msg = UpdateMessage(withdrawn=(Prefix.parse("10.0.0.0/8"),))
        decoded = roundtrip(msg)
        assert decoded.withdrawn == msg.withdrawn
        assert decoded.announced == ()

    def test_announce_only_minimal_attrs(self):
        msg = UpdateMessage(
            announced=(Prefix.parse("10.0.0.0/8"),),
            attributes=PathAttributes(as_path=AsPath((7,)), next_hop=1),
        )
        assert roundtrip(msg) == msg

    def test_empty_update(self):
        assert roundtrip(UpdateMessage()) == UpdateMessage()

    def test_default_route_nlri(self):
        msg = UpdateMessage(
            announced=(Prefix.parse("0.0.0.0/0"),),
            attributes=PathAttributes(as_path=AsPath((7,)), next_hop=1),
        )
        assert roundtrip(msg) == msg

    def test_host_route_nlri(self):
        msg = UpdateMessage(withdrawn=(Prefix.parse("192.0.2.1/32"),))
        assert roundtrip(msg) == msg

    def test_prefix_update_count(self):
        msg = UpdateMessage(
            withdrawn=(Prefix.parse("10.0.0.0/8"),),
            announced=(
                Prefix.parse("11.0.0.0/8"),
                Prefix.parse("12.0.0.0/8"),
            ),
            attributes=PathAttributes(as_path=AsPath((7,)), next_hop=1),
        )
        assert msg.prefix_update_count == 3

    def test_rejects_as_set_segment(self):
        # Hand-build an AS_PATH with segment type 1 (AS_SET).
        msg = UpdateMessage(
            announced=(Prefix.parse("10.0.0.0/8"),),
            attributes=PathAttributes(as_path=AsPath((7,)), next_hop=1),
        )
        data = bytearray(encode_message(msg))
        idx = data.find(bytes([0x40, 2, 4, 2]))  # AS_PATH attr, seg type 2
        assert idx >= 0
        data[idx + 3] = 1  # AS_SET
        with pytest.raises(WireError):
            decode_message(bytes(data))


    def test_rejects_as_zero_in_as_path(self):
        """RFC 7607: AS 0 in an AS_PATH makes the UPDATE malformed — a
        WireError, not the ValueError ``AsPath`` raises."""
        data = encode_message(
            UpdateMessage(
                announced=(Prefix.parse("10.0.0.0/8"),),
                attributes=PathAttributes(as_path=AsPath((7, 3561))),
            )
        )
        bad = data.replace(bytes([2, 2, 0, 7]), bytes([2, 2, 0, 0]))
        assert bad != data
        for decode in (decode_message, decode_update):
            with pytest.raises(WireError, match="AS_PATH holds AS 0"):
                decode(bad)


class TestFraming:
    def test_bad_marker(self):
        data = bytearray(encode_message(KeepAliveMessage()))
        data[0] = 0
        with pytest.raises(WireError):
            decode_message(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(WireError):
            decode_message(b"\xff" * 10)

    def test_truncated_body(self):
        data = encode_message(
            UpdateMessage(withdrawn=(Prefix.parse("10.0.0.0/8"),))
        )
        with pytest.raises(WireError):
            decode_message(data[:-1])

    def test_unknown_type(self):
        data = bytearray(encode_message(KeepAliveMessage()))
        data[18] = 9
        with pytest.raises(WireError):
            decode_message(bytes(data))

    def test_stream_of_messages(self):
        msgs = [
            KeepAliveMessage(),
            UpdateMessage(withdrawn=(Prefix.parse("10.0.0.0/8"),)),
            KeepAliveMessage(),
        ]
        stream = b"".join(encode_message(m) for m in msgs)
        decoded = []
        offset = 0
        while offset < len(stream):
            msg, used = decode_message(stream[offset:])
            decoded.append(msg)
            offset += used
        assert decoded == msgs


# -- property-based fuzz --------------------------------------------------

attr_strategy = st.builds(
    PathAttributes,
    as_path=st.builds(
        AsPath, st.lists(st.integers(1, 65535), min_size=1, max_size=10)
    ),
    next_hop=st.integers(0, 2**32 - 1),
    origin=st.sampled_from(list(Origin)),
    med=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    local_pref=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    communities=st.frozensets(st.integers(0, 2**32 - 1), max_size=6),
    atomic_aggregate=st.booleans(),
    aggregator=st.one_of(
        st.none(),
        st.tuples(st.integers(1, 65535), st.integers(0, 2**32 - 1)),
    ),
)

update_strategy = st.builds(
    UpdateMessage,
    withdrawn=st.lists(prefixes(), max_size=10, unique=True).map(tuple),
    announced=st.lists(prefixes(), min_size=1, max_size=10, unique=True).map(
        tuple
    ),
    attributes=attr_strategy,
)


@settings(max_examples=80)
@given(update_strategy)
def test_update_roundtrip_property(msg):
    assert roundtrip(msg) == msg


@settings(max_examples=40)
@given(st.binary(min_size=0, max_size=60))
def test_decoder_never_crashes_on_garbage(data):
    try:
        decode_message(data)
    except WireError:
        pass  # rejecting is fine; raising anything else is not


# -- the tuple-level core against the object path -------------------------

def _core_rows(data: bytes):
    """``decode_update``'s outcome as ``(net, plen, kind, bundle)``
    rows, or the WireError message it raises."""
    try:
        parts, consumed = decode_update(data)
    except WireError as exc:
        return str(exc)
    if parts is None:
        return None, consumed
    withdrawn, announced, bundle = parts
    return [
        (net, plen, UpdateKind.WITHDRAW, None) for net, plen in withdrawn
    ] + [
        (net, plen, UpdateKind.ANNOUNCE, bundle) for net, plen in announced
    ], consumed


def _object_rows(data: bytes):
    """The same, read off ``update_rows(decode_message(...))`` and
    ``attribute_tuple``."""
    try:
        message, consumed = decode_message(data)
    except WireError as exc:
        return str(exc)
    if not isinstance(message, UpdateMessage):
        return None, consumed
    return [
        (prefix.network, prefix.length, kind,
         None if attributes is None else attribute_tuple(attributes))
        for prefix, kind, attributes in update_rows(message)
    ], consumed


@settings(max_examples=80)
@given(update_strategy)
def test_core_matches_the_object_path(msg):
    data = encode_message(msg)
    rows, consumed = _core_rows(data)
    assert (rows, consumed) == _object_rows(data)
    assert consumed == len(data)
    assert [row[:2] for row in rows] == [
        tuple(prefix) for prefix in msg.withdrawn + msg.announced
    ]
    assert rows[-1][3] == attribute_tuple(msg.attributes)


#: UPDATEs whose every byte the mutation test below damages.
_MUTATED = [
    UpdateMessage(
        withdrawn=(Prefix.parse("10.0.0.0/8"), Prefix.parse("192.0.2.0/24")),
        announced=(Prefix.parse("198.51.100.0/24"), Prefix.parse("0.0.0.0/0")),
        attributes=PathAttributes(
            as_path=AsPath((7, 1239, 3561, 3561)),
            next_hop=0x0A000001,
            origin=Origin.INCOMPLETE,
            med=120,
            local_pref=200,
            communities=frozenset({0xFFFFFF01, 0x02BC0001, 5}),
            atomic_aggregate=True,
            aggregator=(701, 0x0A0000FF),
        ),
    ),
    UpdateMessage(
        announced=(Prefix.parse("192.0.2.1/32"),),
        attributes=PathAttributes(as_path=AsPath((65535,)), next_hop=1),
    ),
    UpdateMessage(withdrawn=(Prefix.parse("172.16.0.0/12"),)),
    UpdateMessage(),
]


def test_core_matches_the_object_path_under_byte_damage():
    """Every single-byte mutation (to 0, 255 and a seeded value) of a
    few rich UPDATEs: the core and the object path agree on the rows
    and bundle, or raise the same WireError message — and neither
    raises anything else."""
    rng = random.Random(4271)
    outcomes = set()
    for msg in _MUTATED:
        data = encode_message(msg)
        for offset in range(len(data)):
            for value in (0, 255, rng.randrange(256)):
                damaged = bytearray(data)
                damaged[offset] = value
                damaged = bytes(damaged)
                expected = _object_rows(damaged)
                assert _core_rows(damaged) == expected, (offset, value)
                if isinstance(expected, str):
                    outcomes.add(expected)
    assert "AS_PATH holds AS 0" in outcomes
    assert len(outcomes) >= 10, outcomes  # the damage reached many rungs
