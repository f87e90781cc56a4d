"""Shared test helpers: records in, production-tier verdicts out; a
spill chunk re-sealed around a damaged or schema-1 footer."""

import hashlib
import json

from repro.core.columns import (
    CATEGORY_OF_CODE,
    ColumnClassifier,
    RecordColumns,
)
from repro.core.instability import CategoryCounts
from repro.core.spill import (
    CHUNK_END_MAGIC,
    CHUNK_MAGIC,
    attributes_from_payload,
)
from repro.verify.reference import reference_classify

#: A generator checkpoint holding no pair: ``restore_state`` of it
#: forgets every route, as a fresh generator starts.
NO_PAIR_STATE = {"net": [], "plen": [], "asn": [], "flags": [], "med": []}


def reseal_chunk(path, mutate):
    """Pass a chunk's footer metadata (its digest removed) through
    ``mutate`` and write it back sealed with a fresh digest, as
    ``write_chunk`` seals one: whatever ``mutate`` broke, the chunk
    still passes every byte-level check."""
    raw = path.read_bytes()
    footer_off = len(raw) - 16 - int.from_bytes(raw[-16:-8], "little")
    data = raw[len(CHUNK_MAGIC):footer_off]
    meta = json.loads(raw[footer_off:-16])
    del meta["sha256"]
    mutate(meta)
    meta_bytes = json.dumps(
        meta, sort_keys=True, separators=(",", ":")
    ).encode()
    sha256 = hashlib.sha256(data + meta_bytes).hexdigest()
    footer = meta_bytes[:-1] + b',"sha256":"%s"}' % sha256.encode()
    path.write_bytes(
        CHUNK_MAGIC + data + footer
        + len(footer).to_bytes(8, "little") + CHUNK_END_MAGIC
    )


def schema_one(meta):
    """Rewrite a chunk's footer metadata the way schema 1 wrote it:
    one attribute entry a bundle, each field under its own key."""
    table = attributes_from_payload(meta["attrs"])
    meta["schema"] = 1
    meta["attrs"] = [
        {
            "as_path": list(path),
            "next_hop": hop,
            "origin": origin,
            "med": med,
            "local_pref": pref,
            "communities": list(comms),
            "atomic_aggregate": atomic,
            "aggregator": None if aggregator is None else list(aggregator),
        }
        for hop, path, origin, med, pref, comms, atomic, aggregator in map(
            table.tuple_of, range(len(table))
        )
    ]


def labels(records, classifier=None):
    """``(category, policy_change)`` per record from the production
    classifier.  With a fresh classifier the same stream must also
    match the reference oracle (a carried-in ``classifier`` has state
    the oracle cannot see, so only the fresh case is cross-checked)."""
    _, codes, policy = classified(records, classifier)
    result = [
        (CATEGORY_OF_CODE[code], flag)
        for code, flag in zip(codes.tolist(), policy.tolist())
    ]
    if classifier is None:
        assert [(c.name, p) for c, p in result] == reference_classify(records)
    return result


def classified(records, classifier=None):
    """``(columns, codes, policy)`` for a record list."""
    if classifier is None:
        classifier = ColumnClassifier()
    columns = RecordColumns.from_records(records)
    codes, policy = classifier.classify(columns)
    return columns, codes, policy


def classified_counts(records, classifier=None):
    """The taxonomy tally of a record list."""
    _, codes, policy = classified(records, classifier)
    return CategoryCounts.from_codes(codes, policy)
