"""Tests for the RFC 6396 MRT interoperability codec."""

import io
import struct

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.wire import WireError
from repro.collector.mrt_rfc import (
    MRT_TYPE_BGP4MP,
    read_bgp4mp,
    write_bgp4mp,
)
from repro.collector.record import UpdateKind, UpdateRecord
from repro.net.prefix import Prefix

P = Prefix.parse


def announce(time=100.0, peer=0x0A000001, asn=701, prefix="10.0.0.0/8"):
    return UpdateRecord(
        time, peer, asn, P(prefix), UpdateKind.ANNOUNCE,
        PathAttributes(as_path=AsPath((asn, 3561)), next_hop=peer, med=5),
    )


def withdraw(time=101.0, peer=0x0A000001, asn=701, prefix="10.0.0.0/8"):
    return UpdateRecord(time, peer, asn, P(prefix), UpdateKind.WITHDRAW)


class TestBgp4mp:
    def test_roundtrip(self):
        records = [announce(), withdraw(), announce(prefix="192.0.2.0/24")]
        buffer = io.BytesIO()
        assert write_bgp4mp(buffer, records) == 3
        buffer.seek(0)
        back = list(read_bgp4mp(buffer))
        assert len(back) == 3
        for original, loaded in zip(records, back):
            assert loaded.prefix == original.prefix
            assert loaded.kind == original.kind
            assert loaded.peer_asn == original.peer_asn
            assert loaded.peer_id == original.peer_id
            # RFC 6396 classic timestamps are whole seconds.
            assert loaded.time == float(int(original.time))

    def test_attributes_survive(self):
        buffer = io.BytesIO()
        write_bgp4mp(buffer, [announce()])
        buffer.seek(0)
        (record,) = read_bgp4mp(buffer)
        assert tuple(record.attributes.as_path) == (701, 3561)
        assert record.attributes.med == 5

    def test_empty_stream(self):
        assert list(read_bgp4mp(io.BytesIO(b""))) == []

    def test_truncated_header(self):
        with pytest.raises(WireError):
            list(read_bgp4mp(io.BytesIO(b"\x00\x01\x02")))

    def test_wrong_type_rejected(self):
        buffer = io.BytesIO()
        write_bgp4mp(buffer, [withdraw()])
        data = bytearray(buffer.getvalue())
        data[5] = 99  # type low byte
        with pytest.raises(WireError):
            list(read_bgp4mp(io.BytesIO(bytes(data))))

    def test_common_header_fields(self):
        buffer = io.BytesIO()
        write_bgp4mp(buffer, [withdraw(time=1234.9)])
        data = buffer.getvalue()
        timestamp, mrt_type, subtype, length = struct.unpack_from(
            ">IHHI", data
        )
        assert timestamp == 1234  # truncated to seconds
        assert mrt_type == MRT_TYPE_BGP4MP
        assert subtype == 1
        assert length == len(data) - 12
