"""Adversarial-event detection tier: hijacks, leaks, and storms.

The paper's taxonomy names the *benign* pathologies (flaps, WWDups,
AADups).  Real instability also comes from adversarial or misconfigured
announcements; this module layers a detection tier on top of the
taxonomy that flags, per update record:

``MOAS_CONFLICT``
    The announced origin AS conflicts with a different origin currently
    announcing the *same* prefix (Multiple-Origin-AS — the classic
    exact-prefix hijack signature).
``ORIGIN_CHANGE``
    The origin AS differs from the last origin ever announced for this
    prefix (persists across withdrawals; a hijack that waits for the
    victim to withdraw still trips it).
``SUBPREFIX_FOREIGN``
    A more-specific prefix announced while a covering prefix is active
    with *only other* origins — the sub-prefix hijack signature.
``SUBPREFIX_DEAGG``
    A more-specific prefix whose origin also announces the covering
    prefix — deaggregation (misconfiguration storm material, not an
    attack).
``VALLEY_VIOLATION``
    The AS path violates the Gao-Rexford valley-free export rule given
    a declared :class:`~repro.topology.relationships.AsRelationships`
    topology — the route-leak signature.  The observer (route server /
    collector) session is a peering session, so a path whose last hop
    learned the route from a provider or peer and exported it to us is
    a leak.
``FORGED_EDGE``
    The AS path contains an adjacency absent from the declared
    topology — AS-path forgery.  Forged paths are not valley-checked
    (the relationship of a non-existent edge is undefined).

On top of the flags the tier keeps per-prefix *stability counters*
(total events, instability events, plain withdrawals) following the
path-vector stability metrics of Papadimitriou & Cabellos
(arXiv:1204.5641/5642): a route's stability is the fraction of its
update activity that does **not** perturb reachability or forwarding —
see :func:`stability_scores`.

:class:`ColumnDetector` is the one production implementation: batched
over :class:`~repro.core.columns.RecordColumns`, with the
per-attribute work (origin extraction, path checks) and the stability
counters vectorized and the concurrent-origin multiset updated in one
scan over primitive arrays.  State carries across batches, so a
campaign fed day by day detects exactly like one continuous stream.

The differential harness (``repro.verify``) holds it to the
dependency-free oracle in :mod:`repro.verify.reference`, which is
deliberately *not* imported here.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..collector.record import UpdateKind, UpdateRecord
from ..core.columns import AttributeTable, ColumnClassifier, RecordColumns
from ..core.taxonomy import INSTABILITY_CATEGORIES, UpdateCategory
from ..topology.relationships import AsRelationships

__all__ = [
    "FLAGS",
    "MOAS_CONFLICT",
    "ORIGIN_CHANGE",
    "SUBPREFIX_FOREIGN",
    "SUBPREFIX_DEAGG",
    "VALLEY_VIOLATION",
    "FORGED_EDGE",
    "ColumnDetector",
    "DetectionResult",
    "detect_records_columnar",
    "detection_digest",
    "path_flags",
    "stability_scores",
]

# -- flag bits (stable wire values: golden digests depend on them) ----------

MOAS_CONFLICT = 1
ORIGIN_CHANGE = 2
SUBPREFIX_FOREIGN = 4
SUBPREFIX_DEAGG = 8
VALLEY_VIOLATION = 16
FORGED_EDGE = 32

#: Canonical (bit, name) order — counter keys and rendering follow it.
FLAGS: Tuple[Tuple[int, str], ...] = (
    (MOAS_CONFLICT, "moas_conflict"),
    (ORIGIN_CHANGE, "origin_change"),
    (SUBPREFIX_FOREIGN, "subprefix_foreign"),
    (SUBPREFIX_DEAGG, "subprefix_deagg"),
    (VALLEY_VIOLATION, "valley_violation"),
    (FORGED_EDGE, "forged_edge"),
)


def path_flags(path: Sequence[int], topology: Optional[AsRelationships]) -> int:
    """VALLEY_VIOLATION / FORGED_EDGE bits for one AS path.

    ``path`` is sender-first (``path[-1]`` is the origin); consecutive
    repeats (prepending) are collapsed before edges are derived.  The
    final export to the observer is a peering session, so it is
    appended as a forced ``"peer"`` hop — which makes the valley-free
    pattern ``up* peer? down*`` reject any path the sender learned from
    a provider or a peer.  A path with any undeclared adjacency is
    forged and is *not* valley-checked.
    """
    if topology is None or len(path) < 2:
        return 0
    dedup = [path[0]]
    for asn in path[1:]:
        if asn != dedup[-1]:
            dedup.append(asn)
    if len(dedup) < 2:
        return 0
    hops: List[str] = []
    for i in range(len(dedup) - 1, 0, -1):
        hop = topology.hop(dedup[i], dedup[i - 1])
        if hop is None:
            return FORGED_EDGE
        hops.append(hop)
    hops.append("peer")
    phase = 0  # 0 = climbing, 1 = peered, 2 = descending
    for hop in hops:
        if hop == "up":
            if phase != 0:
                return VALLEY_VIOLATION
        elif hop == "peer":
            if phase != 0:
                return VALLEY_VIOLATION
            phase = 1
        else:
            phase = 2
    return 0


# -- state helpers (pure dict manipulation, no detection logic) -------------


def _drop_origin(
    origin_count: Dict[Tuple[int, int], Dict[int, int]],
    p: Tuple[int, int],
    origin: int,
) -> None:
    bucket = origin_count[p]
    n = bucket[origin] - 1
    if n:
        bucket[origin] = n
    else:
        del bucket[origin]
        if not bucket:
            del origin_count[p]


def _covering(
    origin_count: Dict[Tuple[int, int], Dict[int, int]], net: int, plen: int
) -> Optional[Tuple[int, int]]:
    """The longest currently-announced strict supernet of ``net/plen``."""
    for length in range(plen - 1, -1, -1):
        shift = 32 - length
        q = ((net >> shift) << shift, length)
        if q in origin_count:
            return q
    return None


_INSTABILITY_VALUES = frozenset(c.value for c in INSTABILITY_CATEGORIES)
_PLAIN_WITHDRAW_VALUE = UpdateCategory.PLAIN_WITHDRAW.value
_ANNOUNCE = int(UpdateKind.ANNOUNCE)

_INSTAB_LUT = np.zeros(16, dtype=bool)
for _value in sorted(_INSTABILITY_VALUES):
    _INSTAB_LUT[_value] = True
del _value


class ColumnDetector:
    """Batched detection over :class:`RecordColumns`.

    Feed time-ordered batches with their taxonomy codes — the codes
    drive the stability counters.  Per-attribute work — origin
    extraction and the valley/forgery path checks — is computed once
    per interned attribute id and gathered over the batch with array
    takes; the stability counters reduce with ``np.bincount`` per
    unique prefix.  The concurrent-origin multiset
    (MOAS / origin-change / sub-prefix state) is inherently sequential
    and runs as one scan over primitive lists.  Results do not depend
    on where the stream is cut into batches (proven against the oracle
    by the ``repro.verify`` differential harness).
    """

    __slots__ = (
        "topology",
        "counts",
        "moas_prefixes",
        "_route_origin",
        "_origin_count",
        "_last_origin",
        "_events",
        "_instability",
        "_withdrawals",
        "_table",
        "_attr_origin",
        "_attr_flags",
        "_origin_arr",
        "_flags_arr",
    )

    def __init__(self, topology: Optional[AsRelationships] = None) -> None:
        self.topology = topology
        #: Cumulative per-flag totals, canonical order.
        self.counts: Dict[str, int] = {name: 0 for _, name in FLAGS}
        #: Every (net, plen) that ever raised a MOAS conflict.
        self.moas_prefixes = set()
        self._route_origin: Dict[Tuple[int, int, int], int] = {}
        self._origin_count: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._last_origin: Dict[Tuple[int, int], int] = {}
        self._events: Dict[Tuple[int, int], int] = {}
        self._instability: Dict[Tuple[int, int], int] = {}
        self._withdrawals: Dict[Tuple[int, int], int] = {}
        self._table: Optional[AttributeTable] = None
        self._attr_origin: List[int] = []
        self._attr_flags: List[int] = []
        self._origin_arr = np.empty(0, dtype=np.int64)
        self._flags_arr = np.empty(0, dtype=np.uint8)

    def _sync_attr_cache(self, table: AttributeTable) -> None:
        """Extend the per-attribute origin/path-flag caches to cover
        every id in ``table`` (tables only grow; a new table object
        resets the cache)."""
        if self._table is not table:
            self._table = table
            self._attr_origin = []
            self._attr_flags = []
        known = len(self._attr_origin)
        total = len(table)
        if known == total:
            return
        topology = self.topology
        for attr_id in range(known, total):
            path = table[attr_id].as_path
            # AsPath forbids ASN 0, so 0 is a safe "empty path" mark
            # (resolved to the announcing peer's ASN per record).
            self._attr_origin.append(path[-1] if path else 0)
            self._attr_flags.append(
                path_flags(path, topology) if topology is not None else 0
            )
        self._origin_arr = np.asarray(self._attr_origin, dtype=np.int64)
        self._flags_arr = np.asarray(self._attr_flags, dtype=np.uint8)

    def detect(self, columns: RecordColumns, codes: np.ndarray) -> np.ndarray:
        """Flags for every row of ``columns`` (batch order).

        ``codes`` are the row-aligned taxonomy codes from
        :meth:`~repro.core.columns.ColumnClassifier.classify` — they
        drive the stability counters.
        """
        data = columns.data
        n = len(data)
        if n == 0:
            return np.zeros(0, dtype=np.uint8)
        self._sync_attr_cache(columns.attrs)

        ann = data["kind"] == _ANNOUNCE
        safe_ids = np.where(ann, data["attr_id"], 0).astype(np.int64)
        if len(self._origin_arr):
            origins = np.take(self._origin_arr, safe_ids)
            base_flags = np.where(ann, np.take(self._flags_arr, safe_ids), 0)
        else:
            # an all-withdraw batch before any attribute was interned
            origins = np.zeros(n, dtype=np.int64)
            base_flags = np.zeros(n, dtype=np.uint8)
        origins = np.where(origins == 0, data["peer_asn"].astype(np.int64), origins)

        # Stability counters: one bincount per counter per batch.
        pkey = (data["net"].astype(np.int64) << 6) | data["plen"]
        uniq, inverse = np.unique(pkey, return_inverse=True)
        ev = np.bincount(inverse, minlength=len(uniq))
        instab = np.bincount(
            inverse[np.take(_INSTAB_LUT, codes)], minlength=len(uniq)
        )
        plain = np.bincount(
            inverse[codes == _PLAIN_WITHDRAW_VALUE], minlength=len(uniq)
        )
        ev_list = ev.tolist()
        instab_list = instab.tolist()
        plain_list = plain.tolist()
        for j, packed in enumerate(uniq.tolist()):
            p = (packed >> 6, packed & 63)
            self._events[p] = self._events.get(p, 0) + ev_list[j]
            if instab_list[j]:
                self._instability[p] = (
                    self._instability.get(p, 0) + instab_list[j]
                )
            if plain_list[j]:
                self._withdrawals[p] = (
                    self._withdrawals.get(p, 0) + plain_list[j]
                )

        # The sequential multiset scan, over primitives.
        out = base_flags.tolist()
        ann_list = ann.tolist()
        peer_list = data["peer_id"].tolist()
        net_list = data["net"].tolist()
        plen_list = data["plen"].tolist()
        origin_list = origins.tolist()
        route_origin = self._route_origin
        origin_count = self._origin_count
        last_origin = self._last_origin
        moas = self.moas_prefixes
        for i in range(n):
            net = net_list[i]
            plen = plen_list[i]
            p = (net, plen)
            key = (peer_list[i], net, plen)
            if ann_list[i]:
                origin = origin_list[i]
                flags = out[i]
                old = route_origin.get(key)
                if old is not None:
                    _drop_origin(origin_count, p, old)
                bucket = origin_count.get(p)
                if bucket and any(o != origin for o in bucket):
                    flags |= MOAS_CONFLICT
                    moas.add(p)
                last = last_origin.get(p)
                if last is not None and last != origin:
                    flags |= ORIGIN_CHANGE
                last_origin[p] = origin
                cover = _covering(origin_count, net, plen)
                if cover is not None:
                    flags |= (
                        SUBPREFIX_DEAGG
                        if origin in origin_count[cover]
                        else SUBPREFIX_FOREIGN
                    )
                if bucket is None:
                    origin_count[p] = {origin: 1}
                else:
                    bucket[origin] = bucket.get(origin, 0) + 1
                route_origin[key] = origin
                out[i] = flags
            else:
                old = route_origin.pop(key, None)
                if old is not None:
                    _drop_origin(origin_count, p, old)

        result = np.asarray(out, dtype=np.uint8)
        for bit, name in FLAGS:
            hits = int(np.count_nonzero(result & bit))
            if hits:
                self.counts[name] += hits
        return result

    def stability(self) -> Dict[Tuple[int, int], Tuple[int, int, int]]:
        """Per-prefix ``(events, instability, withdrawals)`` counters."""
        return {
            p: (
                self._events[p],
                self._instability.get(p, 0),
                self._withdrawals.get(p, 0),
            )
            for p in self._events
        }

    def state_digest(self) -> str:
        """Digest of all carried state — batching-comparable."""
        state = (
            sorted(self._route_origin.items()),
            sorted(
                (p, sorted(b.items())) for p, b in self._origin_count.items()
            ),
            sorted(self._last_origin.items()),
            sorted(self._events.items()),
            sorted(self._instability.items()),
            sorted(self._withdrawals.items()),
            sorted(self.moas_prefixes),
        )
        return hashlib.sha256(repr(state).encode()).hexdigest()


class DetectionResult:
    """Flags + the detector that produced them (for state queries)."""

    __slots__ = ("flags", "detector")

    def __init__(self, flags: List[int], detector) -> None:
        self.flags = flags
        self.detector = detector

    @property
    def counts(self) -> Dict[str, int]:
        return self.detector.counts

    def digest(self, records: Sequence[UpdateRecord]) -> str:
        return detection_digest(records, self.flags)


def detect_records_columnar(
    records: Sequence[UpdateRecord],
    topology: Optional[AsRelationships] = None,
    boundaries: Sequence[int] = (),
) -> DetectionResult:
    """Classify and detect over a time-ordered record list, optionally
    cut into batches at ``boundaries`` (row indices) to exercise the
    cross-batch carry."""
    table = AttributeTable()
    classifier = ColumnClassifier()
    detector = ColumnDetector(topology)
    edges = [0] + sorted(set(boundaries)) + [len(records)]
    flags: List[int] = []
    for lo, hi in zip(edges, edges[1:]):
        if hi <= lo:
            continue
        batch = RecordColumns.from_records(records[lo:hi], table)
        codes, _ = classifier.classify(batch)
        flags.extend(int(f) for f in detector.detect(batch, codes))
    return DetectionResult(flags, detector)


def detection_digest(
    records: Sequence[UpdateRecord], flags: Sequence[int]
) -> str:
    """Canonical line digest over (record, flags) pairs — the common
    coin of the detection tier and the verify oracle (which
    re-implements this format without importing it)."""
    if len(records) != len(flags):
        raise ValueError("records and flags are not aligned")
    hasher = hashlib.sha256()
    for record, flag in zip(records, flags):
        prefix = record.prefix
        kind = "A" if record.kind is UpdateKind.ANNOUNCE else "W"
        line = (
            f"{record.time!r}|{record.peer_id}|{record.peer_asn}|"
            f"{prefix.network}/{prefix.length}|{kind}|{int(flag)}\n"
        )
        hasher.update(line.encode())
    return hasher.hexdigest()


def stability_scores(
    stability: Dict[Tuple[int, int], Tuple[int, int, int]],
) -> Dict[Tuple[int, int], float]:
    """Per-prefix stability score in ``[0, 1]``.

    Following the path-vector stability metrics (arXiv:1204.5641): the
    score is the fraction of a route's update activity that is *not*
    instability (AADiff/WADiff/WADup) and *not* a reachability loss
    (plain withdrawal).  A never-perturbed route scores 1.0; a route
    whose every event churns forwarding scores 0.0.  Scores are derived
    from the integer counters, so the oracle computes identical floats.
    """
    return {
        p: 1.0 - (instability + withdrawals) / events
        for p, (events, instability, withdrawals) in stability.items()
    }
