"""Seeded round-trip property tests for the wire and MRT codecs.

Encode → decode → encode must reproduce identical bytes (the codec is
canonical — there is exactly one encoding of a message), and decode →
encode → decode identical values.
"""

import io
import random

import pytest

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.messages import (
    KeepAliveMessage,
    NotificationCode,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.bgp.wire import decode_message, encode_message
from repro.collector import mrt
from repro.net.prefix import Prefix
from repro.verify.streams import fuzz_stream

FUZZ_SEEDS = range(25)


def random_prefix(rng):
    length = rng.choice((8, 16, 20, 24, 28, 32))
    mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
    return Prefix(rng.getrandbits(32) & mask, length)


def random_attributes(rng):
    return PathAttributes(
        as_path=AsPath(
            tuple(rng.randrange(1, 65536) for _ in range(rng.randint(1, 6)))
        ),
        next_hop=rng.getrandbits(32),
        origin=rng.choice(tuple(Origin)),
        med=rng.choice((None, rng.randrange(0, 1 << 32))),
        local_pref=rng.choice((None, rng.randrange(0, 1 << 32))),
        communities=frozenset(
            rng.getrandbits(32) for _ in range(rng.randint(0, 3))
        ),
        atomic_aggregate=rng.random() < 0.2,
        aggregator=(
            (rng.randrange(1, 65536), rng.getrandbits(32))
            if rng.random() < 0.2
            else None
        ),
    )


def random_message(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return OpenMessage(
            asn=rng.randrange(1, 65536),
            hold_time=float(rng.randrange(0, 65536)),
            bgp_identifier=rng.getrandbits(32),
        )
    if kind == 1:
        return KeepAliveMessage()
    if kind == 2:
        return NotificationMessage(
            code=rng.choice(tuple(NotificationCode)),
            subcode=rng.randrange(0, 256),
        )
    if rng.random() < 0.5:
        return UpdateMessage(
            withdrawn=tuple(
                sorted(random_prefix(rng) for _ in range(rng.randint(1, 4)))
            )
        )
    return UpdateMessage(
        announced=tuple(
            sorted(random_prefix(rng) for _ in range(rng.randint(1, 4)))
        ),
        attributes=random_attributes(rng),
    )


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_wire_encode_decode_encode_identical_bytes(seed):
    rng = random.Random(seed)
    for _ in range(40):
        message = random_message(rng)
        wire = encode_message(message)
        decoded, consumed = decode_message(wire)
        assert consumed == len(wire)
        assert decoded == message
        assert encode_message(decoded) == wire


def quantize_time(time):
    """The codec's microsecond quantization (its timestamp field is
    seconds + microseconds, so sub-µs float noise cannot survive)."""
    seconds = int(time)
    microseconds = int(round((time - seconds) * 1_000_000))
    if microseconds == 1_000_000:
        seconds += 1
        microseconds = 0
    return seconds + microseconds / 1_000_000


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_mrt_write_read_write_identical_bytes(seed):
    records = fuzz_stream(seed, n_records=80).records
    first = io.BytesIO()
    mrt.write_records(first, records)
    decoded = list(mrt.read_records(io.BytesIO(first.getvalue())))
    assert len(decoded) == len(records)
    for got, sent in zip(decoded, records):
        assert got.time == quantize_time(sent.time)
        assert (got.peer_id, got.peer_asn, got.prefix, got.kind,
                got.attributes) == (sent.peer_id, sent.peer_asn,
                                    sent.prefix, sent.kind,
                                    sent.attributes)
    # Re-encoding the decoded stream is byte-identical (the decoded
    # times are exactly representable, so the round trip is a fixpoint).
    second = io.BytesIO()
    mrt.write_records(second, decoded)
    assert second.getvalue() == first.getvalue()


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_mrt_columnar_write_matches_streaming_write(seed):
    from repro.core.columns import RecordColumns

    records = fuzz_stream(seed, n_records=80).records
    streaming = io.BytesIO()
    mrt.write_records(streaming, records)
    columnar = io.BytesIO()
    mrt.write_columns(columnar, RecordColumns.from_records(records))
    assert columnar.getvalue() == streaming.getvalue()
