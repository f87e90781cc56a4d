"""Memory-mappable columnar spill chunks: the out-of-core tier.

The paper's measurement horizon is nine months of 3-6 million
updates/day — far past what a campaign can hold in RAM.  This module
defines the on-disk unit that makes long horizons a flat-memory
workload: one *spill chunk* per generated day, holding a
:class:`~repro.core.columns.RecordColumns` batch as a raw
:data:`~repro.core.columns.RECORD_DTYPE` segment that ``np.memmap``
can address directly, plus a small JSON footer.

File layout (single file, written atomically via ``os.replace``)::

    offset 0      8-byte magic "RCOLSPL1"
    offset 8      rows * RECORD_DTYPE.itemsize raw record bytes
    then          JSON footer: schema, dtype descr, row count,
                  attribute table (as columns), caller metadata, sha256
    last 16 bytes footer length (little-endian u64) + end magic

Readers seek the trailer, parse the footer, and map the data segment
in place — :class:`~repro.core.columns.RecordColumns` wraps the memmap
without copying, so streaming a 270-day campaign touches one day of
pages at a time.  The digest covers the data bytes *and* the footer
metadata, so truncation, bit flips, or a stale footer all surface as
:class:`ChunkCorrupt` instead of silently corrupt aggregates.

The attribute table serializes through an explicit codec of the plain
:func:`~repro.bgp.attributes.attribute_tuple` bundles the table is
keyed by and the classifier compares (:func:`attributes_payload` /
:func:`attributes_from_payload`; no bundle object is built either
way) — no pickle anywhere, so chunks are inspectable and stable
across Python versions.  Under schema 2 the footer's ``"attrs"`` is
the table as columns: one list each for ``next_hop``, ``origin``,
``med``, ``local_pref``, ``atomic_aggregate`` and ``aggregator``
with one entry a bundle, and the AS paths and the communities as
one flat pool each (``as_path``, ``communities``) with a per-bundle
length list (``as_path_len``, ``communities_len``).  The decoder
checks each column once, as a whole — types by the set of types,
ranges by min/max, length lists against their pool, community order
by one diff over the pool — and any damage is :class:`ChunkCorrupt`.
There is one layout: a chunk of another schema is corrupt, and its
day regenerates.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from itertools import accumulate, chain
from pathlib import Path
from typing import BinaryIO, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..bgp.attributes import Origin
from .columns import NO_ATTR, RECORD_DTYPE, AttributeTable, RecordColumns

__all__ = [
    "CHUNK_MAGIC",
    "CHUNK_SCHEMA",
    "ChunkCorrupt",
    "ChunkInfo",
    "SpillChunk",
    "attributes_payload",
    "attributes_from_payload",
    "write_chunk",
    "read_chunk",
    "verify_chunk",
]

CHUNK_MAGIC = b"RCOLSPL1"
CHUNK_END_MAGIC = b"1LPSLOCR"
CHUNK_SCHEMA = 2
#: Trailer: little-endian u64 footer length + 8-byte end magic.
_TRAILER_SIZE = 16
#: Streaming-hash block size for digest verification.
_HASH_BLOCK = 1 << 22


class ChunkCorrupt(RuntimeError):
    """A spill chunk failed structural or digest verification.

    Raised for truncation, bit flips, bad magic, schema or dtype
    mismatches, and unparseable footers — any state where the chunk
    cannot be trusted and the day must be regenerated.
    """


class ChunkInfo:
    """Lightweight descriptor of a chunk on disk (what a manifest or a
    worker handoff carries instead of the data itself)."""

    __slots__ = ("rows", "sha256")

    def __init__(self, rows: int, sha256: str) -> None:
        self.rows = rows
        self.sha256 = sha256


class SpillChunk(NamedTuple):
    """A verified chunk read back from disk: the (memory-mapped)
    columns, the caller metadata stored with them, and the descriptor."""

    columns: RecordColumns
    extra: dict
    info: ChunkInfo


# -- attribute table codec --------------------------------------------------

#: The footer's attribute columns with one entry a bundle: every field
#: of :func:`~repro.bgp.attributes.attribute_tuple` but the AS path and
#: the communities, and those two pools' length lists.
_BUNDLE_COLUMNS = (
    "next_hop", "origin", "med", "local_pref", "atomic_aggregate",
    "aggregator", "as_path_len", "communities_len",
)
_COLUMNS = frozenset(_BUNDLE_COLUMNS + ("as_path", "communities"))
_U32 = 0xFFFFFFFF
_NONE = type(None)


def attributes_payload(table: AttributeTable) -> dict:
    """The whole intern table as columns, id order preserved: entry
    ``i`` of each bundle column, and bundle ``i``'s run of each pool,
    is bundle ``i``'s field."""
    hops, paths, origins, meds, prefs, comms, atomics, aggregators = (
        list(zip(*map(table.tuple_of, range(len(table))))) or [()] * 8
    )
    return {
        "next_hop": list(hops),
        "as_path": list(chain.from_iterable(paths)),
        "as_path_len": list(map(len, paths)),
        "origin": list(origins),
        "med": list(meds),
        "local_pref": list(prefs),
        "communities": list(chain.from_iterable(comms)),
        "communities_len": list(map(len, comms)),
        "atomic_aggregate": list(atomics),
        "aggregator": [None if a is None else list(a) for a in aggregators],
    }


def _ints(
    values, low: int, high: int, name: str, nullable: bool = False
) -> None:
    """Check ``values`` once, as a column: every entry an int (or a
    null, if ``nullable``; never a bool) in ``[low, high]``."""
    types = set(map(type, values))
    if nullable and _NONE in types:
        types.discard(_NONE)
        values = set(values)
        values.discard(None)
    if not types <= {int}:
        raise ValueError(f"{name}: not an integer column")
    if values and not (low <= min(values) and max(values) <= high):
        raise ValueError(f"{name}: out of range")


def _split(pool: list, lengths: list, name: str) -> list:
    """``pool`` cut into one tuple a bundle by ``lengths``, which must
    cover it exactly; nothing is sized by a claimed length."""
    _ints(lengths, 0, len(pool), f"{name}_len")
    if sum(lengths) != len(pool):
        raise ValueError(f"{name}_len does not cover its pool")
    if not pool:
        return [()] * len(lengths)
    ends = list(accumulate(lengths))
    pool = tuple(pool)  # a tuple's slice is the bundle's tuple
    return [pool[start:end] for start, end in zip([0, *ends], ends)]


def attributes_from_payload(attrs: dict) -> AttributeTable:
    """The inverse of :func:`attributes_payload`, in the tuple form of
    :func:`~repro.bgp.attributes.attribute_tuple`.  Each column is
    checked once, as a whole; a missing, extra, ragged or ill-typed
    column, an out-of-range value, communities not strictly increasing
    within a bundle or a repeated bundle is :class:`ChunkCorrupt`."""
    try:
        if set(attrs) != _COLUMNS:
            raise ValueError("wrong column set")
        if not all(type(attrs[name]) is list for name in _COLUMNS):
            raise ValueError("a column is not a list")
        n = len(attrs["next_hop"])
        if any(len(attrs[name]) != n for name in _BUNDLE_COLUMNS):
            raise ValueError("ragged columns")
        _ints(attrs["next_hop"], 0, _U32, "next_hop")
        _ints(attrs["origin"], int(min(Origin)), int(max(Origin)), "origin")
        _ints(attrs["med"], 0, _U32, "med", nullable=True)
        _ints(attrs["local_pref"], 0, _U32, "local_pref", nullable=True)
        if not set(map(type, attrs["atomic_aggregate"])) <= {bool}:
            raise ValueError("atomic_aggregate: not a bool column")
        path_pool = attrs["as_path"]
        _ints(path_pool, 1, 65535, "as_path")
        paths = _split(path_pool, attrs["as_path_len"], "as_path")
        comm_pool = attrs["communities"]
        _ints(comm_pool, 0, _U32, "communities")
        comms = _split(comm_pool, attrs["communities_len"], "communities")
        if len(comm_pool) > 1:
            # One diff over the pool; the steps between bundles don't count.
            steps = np.diff(np.asarray(comm_pool, dtype=np.int64))
            ends = np.cumsum(attrs["communities_len"])
            steps[ends[(ends > 0) & (ends < len(comm_pool))] - 1] = 1
            if (steps <= 0).any():
                raise ValueError("communities: not strictly increasing")
        aggregators = attrs["aggregator"]
        if set(map(type, aggregators)) - {_NONE}:
            given = [a for a in aggregators if a is not None]
            if set(map(type, given)) != {list} or set(map(len, given)) != {2}:
                raise ValueError("aggregator: not a column of pairs")
            asns, addresses = zip(*given)
            _ints(asns, 1, 65535, "aggregator ASN")
            _ints(addresses, 0, _U32, "aggregator address")
            aggregators = [a if a is None else tuple(a) for a in aggregators]
        return AttributeTable.from_tuples(list(zip(
            attrs["next_hop"], paths, attrs["origin"], attrs["med"],
            attrs["local_pref"], comms, attrs["atomic_aggregate"], aggregators,
        )))
    except (LookupError, TypeError, ValueError) as exc:
        raise ChunkCorrupt(f"malformed attribute table: {exc!r}") from exc


# -- write ------------------------------------------------------------------


def _canonical(payload) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _footer_tail(sha256: str) -> bytes:
    """How a footer ends.  ``"sha256"`` sorts after every other footer
    key, so the footer is the canonical metadata the digest covers
    with its closing brace replaced by this — writer and reader both
    hash the metadata bytes that are on disk, neither encodes them a
    second time."""
    return b',"sha256":"%s"}' % sha256.encode("utf-8")


def write_chunk(
    path: Union[str, Path],
    columns: RecordColumns,
    extra: Optional[dict] = None,
) -> ChunkInfo:
    """Persist ``columns`` as one spill chunk; atomic via a temp file.

    ``extra`` is caller metadata stored verbatim in the footer (the
    campaign puts the day number, config fingerprint, and generator
    state checkpoint there); it must be canonical-JSON-safe plain data.
    """
    path = Path(path)
    data = np.ascontiguousarray(columns.data, dtype=RECORD_DTYPE)
    meta = {
        "schema": CHUNK_SCHEMA,
        "dtype": [list(f) for f in RECORD_DTYPE.descr],
        "rows": len(data),
        "attrs": attributes_payload(columns.attrs),
        "extra": extra if extra is not None else {},
    }
    meta_bytes = _canonical(meta)
    digest = hashlib.sha256(data)
    digest.update(meta_bytes)
    sha256 = digest.hexdigest()
    footer = meta_bytes[:-1] + _footer_tail(sha256)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHUNK_MAGIC)
            fh.write(data)
            fh.write(footer)
            fh.write(len(footer).to_bytes(8, "little"))
            fh.write(CHUNK_END_MAGIC)
        os.replace(tmp, path)
    except OSError as exc:  # a full disk, or a directory on the path
        raise OSError(exc.errno, exc.strerror or str(exc), str(path)) from exc
    finally:  # the temp file never outlives the call
        with contextlib.suppress(OSError):
            tmp.unlink()
    return ChunkInfo(rows=len(data), sha256=sha256)


# -- read -------------------------------------------------------------------


def _read_footer(fh: BinaryIO, path: Path) -> Tuple[dict, bytes]:
    """Parse and structurally validate the footer of the open chunk;
    returns it with its bytes as written.  Raises ChunkCorrupt."""
    size = os.fstat(fh.fileno()).st_size
    if size < len(CHUNK_MAGIC) + _TRAILER_SIZE:
        raise ChunkCorrupt(f"{path}: too short to be a spill chunk")
    if fh.read(len(CHUNK_MAGIC)) != CHUNK_MAGIC:
        raise ChunkCorrupt(f"{path}: bad magic")
    fh.seek(size - _TRAILER_SIZE)
    trailer = fh.read(_TRAILER_SIZE)
    footer_len = int.from_bytes(trailer[:8], "little")
    if trailer[8:] != CHUNK_END_MAGIC:
        raise ChunkCorrupt(f"{path}: bad end magic (truncated?)")
    footer_off = size - _TRAILER_SIZE - footer_len
    if footer_off < len(CHUNK_MAGIC):
        raise ChunkCorrupt(f"{path}: footer length out of bounds")
    fh.seek(footer_off)
    footer_bytes = fh.read(footer_len)
    try:
        footer = json.loads(footer_bytes)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ChunkCorrupt(f"{path}: unparseable footer") from exc
    if not isinstance(footer, dict):
        raise ChunkCorrupt(f"{path}: footer is not an object")
    if footer.get("schema") != CHUNK_SCHEMA:
        raise ChunkCorrupt(
            f"{path}: schema {footer.get('schema')!r} != {CHUNK_SCHEMA}"
        )
    if footer.get("dtype") != [list(f) for f in RECORD_DTYPE.descr]:
        raise ChunkCorrupt(f"{path}: dtype does not match RECORD_DTYPE")
    rows = footer.get("rows")
    if type(rows) is not int or rows < 0:  # a bool is an int
        raise ChunkCorrupt(f"{path}: bad row count {rows!r}")
    if footer_off - len(CHUNK_MAGIC) != rows * RECORD_DTYPE.itemsize:
        raise ChunkCorrupt(
            f"{path}: data segment is not exactly {rows} records"
        )
    if not isinstance(footer.get("attrs"), dict):
        raise ChunkCorrupt(f"{path}: missing attribute table")
    if not isinstance(footer.get("extra"), dict):
        raise ChunkCorrupt(f"{path}: missing extra metadata")
    sha256 = footer.get("sha256")
    if not isinstance(sha256, str) or not sha256.isascii():
        raise ChunkCorrupt(f"{path}: missing digest")
    return footer, footer_bytes


def _verify_digest(
    fh: BinaryIO, path: Path, footer: dict, footer_bytes: bytes
) -> None:
    """Recompute the chunk digest by streaming the data segment, then
    the metadata as it was written (see :func:`_footer_tail`).  A
    footer that parses but does not end the way :func:`write_chunk`
    ends one is corrupt."""
    tail = _footer_tail(footer["sha256"])
    if not footer_bytes.endswith(tail):
        raise ChunkCorrupt(f"{path}: footer is not in canonical form")
    # read(), not a mapping: without this multi-MiB buffer to raise
    # glibc's mmap threshold, each of the fold's ~1 MB temporaries is
    # a fresh mmap, which costs a re-fold more than the copy saves.
    digest = hashlib.sha256()
    remaining = footer["rows"] * RECORD_DTYPE.itemsize
    fh.seek(len(CHUNK_MAGIC))
    while remaining:
        block = fh.read(min(remaining, _HASH_BLOCK))
        if not block:
            raise ChunkCorrupt(f"{path}: data segment truncated")
        digest.update(block)
        remaining -= len(block)
    digest.update(memoryview(footer_bytes)[: -len(tail)])
    digest.update(b"}")
    if digest.hexdigest() != footer["sha256"]:
        raise ChunkCorrupt(f"{path}: digest mismatch")


def _open_chunk(
    path: Path, read: bool
) -> Tuple[dict, Optional[AttributeTable], Optional[np.ndarray]]:
    """One open per chunk: the validated footer and, when ``read``, its
    decoded attribute table and (if the chunk has rows) its data
    segment memory-mapped read-only through the same handle the digest
    pass read.  The table is decoded before that pass, while the parsed
    footer is still in the CPU cache the pass streams megabytes
    through; nothing is returned before the digest holds.  Whatever
    the file system refuses on the way — the chunk vanished, shrank,
    became a directory, returned EIO — is :class:`ChunkCorrupt` like
    any other chunk that cannot be trusted."""
    try:
        with open(path, "rb") as fh:
            footer, footer_bytes = _read_footer(fh, path)
            table = attributes_from_payload(footer["attrs"]) if read else None
            _verify_digest(fh, path, footer, footer_bytes)
            data = None
            if read and footer["rows"]:
                data = np.memmap(
                    fh,
                    dtype=RECORD_DTYPE,
                    mode="r",
                    offset=len(CHUNK_MAGIC),
                    shape=(footer["rows"],),
                )
    except (OSError, ValueError) as exc:  # ValueError: mapped past the end
        raise ChunkCorrupt(f"{path}: {exc}") from exc
    return footer, table, data


def verify_chunk(path: Union[str, Path]) -> ChunkInfo:
    """Full integrity check without materializing the data; raises
    :class:`ChunkCorrupt` on any problem."""
    footer, _, _ = _open_chunk(Path(path), read=False)
    return ChunkInfo(rows=footer["rows"], sha256=footer["sha256"])


def read_chunk(path: Union[str, Path]) -> SpillChunk:
    """Open a chunk for streaming: the digest verified — resume paths
    must never trust a chunk that a crash or fault could have damaged
    — the data segment memory-mapped (read-only, zero-copy into
    :class:`RecordColumns`) and the attribute table decoded from the
    footer."""
    path = Path(path)
    footer, table, data = _open_chunk(path, read=True)
    if data is None:
        data = np.empty(0, dtype=RECORD_DTYPE)
    else:
        announced = data["attr_id"][data["attr_id"] != NO_ATTR]
        if len(announced) and int(announced.max()) >= len(table):
            raise ChunkCorrupt(
                f"{path}: attr_id exceeds attribute table"
            )
    return SpillChunk(
        RecordColumns(data, table),
        footer["extra"],
        ChunkInfo(rows=footer["rows"], sha256=footer["sha256"]),
    )
