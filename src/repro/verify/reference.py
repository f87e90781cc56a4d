"""The reference oracle: the paper's semantics in the plainest Python.

This module re-implements the §4.1 update taxonomy, the inter-arrival
binning of Figure 8, the per-bin time series, and the per-peer /
per-prefix aggregations — as dict-of-lists Python with no imports from
the rest of the library and no NumPy.  It is deliberately naive: every
rule is one obvious ``if``, every aggregate one obvious dict, so the
whole file can be audited against PAPER.md by eye.

It is the ground truth the differential runner
(:mod:`repro.verify.differential`) holds the optimized tiers to.  Do
NOT optimize this module; its only job is to be visibly correct.

The taxonomy, from the paper (§4.1), per (peer, prefix) route stream:

- first announcement ever           → NEW_ANNOUNCE  (uncategorized)
- announce while reachable,
  same (NextHop, ASPATH)            → AADUP  (policy fluctuation when
                                      any other attribute changed)
- announce while reachable,
  different (NextHop, ASPATH)       → AADIFF
- announce while unreachable,
  same (NextHop, ASPATH) as last    → WADUP
- announce while unreachable,
  different (NextHop, ASPATH)       → WADIFF
- withdraw while reachable          → PLAIN_WITHDRAW (uncategorized)
- withdraw while unreachable        → WWDUP
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "FIGURE8_EDGES",
    "DETECTION_FLAGS",
    "reference_classify",
    "reference_counts",
    "reference_counts_by_peer",
    "reference_counts_by_prefix",
    "reference_bin_counts",
    "reference_interarrival_histogram",
    "reference_digest",
    "reference_detect",
    "reference_detection_counts",
    "reference_detection_digest",
    "reference_stability",
]

#: Figure 8's bin edges in seconds (1s 5s 30s 1m 5m 10m 30m 1h 2h 4h
#: 8h 24h); bin ``b`` holds gaps in ``(edge[b-1], edge[b]]``.  Spelled
#: out here rather than imported so the oracle stays self-contained.
FIGURE8_EDGES: Tuple[float, ...] = (
    1.0, 5.0, 30.0, 60.0, 300.0, 600.0, 1800.0,
    3600.0, 7200.0, 14400.0, 28800.0, 86400.0,
)

#: The paper's instability / pathological roll-up sets.
INSTABILITY = ("WADIFF", "AADIFF", "WADUP")
PATHOLOGICAL = ("AADUP", "WWDUP")


def _attr_tuple(attributes) -> tuple:
    """A path-attribute bundle as one plain comparable tuple.

    Spelled out field by field so full-bundle equality (the AADup
    policy-fluctuation test) visibly covers every attribute.
    """
    return (
        attributes.next_hop,
        tuple(attributes.as_path),
        int(attributes.origin),
        attributes.med,
        attributes.local_pref,
        tuple(sorted(attributes.communities)),
        attributes.atomic_aggregate,
        attributes.aggregator,
    )


def _forwarding_tuple(attributes) -> tuple:
    """The (NextHop, ASPATH) half of the paper's forwarding tuple."""
    return (attributes.next_hop, tuple(attributes.as_path))


def reference_classify(records: Iterable) -> List[Tuple[str, bool]]:
    """Label every record ``(category name, policy_change)``.

    ``records`` is any iterable of objects with the
    :class:`~repro.collector.record.UpdateRecord` shape (duck-typed so
    this module imports nothing).  State per (peer, prefix) pair is the
    same triple the paper's tooling tracked: currently reachable, ever
    announced, last announced attributes (kept across withdrawals so a
    re-announcement classifies as WADup vs WADiff).
    """
    reachable: Dict[tuple, bool] = {}
    ever_announced: Dict[tuple, bool] = {}
    last_attributes: Dict[tuple, tuple] = {}
    labels: List[Tuple[str, bool]] = []
    for record in records:
        key = (record.peer_id, record.prefix.network, record.prefix.length)
        if record.is_announce:
            current = _attr_tuple(record.attributes)
            if not ever_announced.get(key, False):
                category, policy = "NEW_ANNOUNCE", False
            else:
                previous = last_attributes[key]
                same_forwarding = current[0:2] == previous[0:2]
                if reachable.get(key, False):
                    if same_forwarding:
                        category = "AADUP"
                        policy = current != previous
                    else:
                        category, policy = "AADIFF", False
                else:
                    category = "WADUP" if same_forwarding else "WADIFF"
                    policy = False
            reachable[key] = True
            ever_announced[key] = True
            last_attributes[key] = current
        else:
            if reachable.get(key, False):
                category, policy = "PLAIN_WITHDRAW", False
            else:
                category, policy = "WWDUP", False
            reachable[key] = False
        labels.append((category, policy))
    return labels


def reference_counts(records: Iterable) -> Dict[str, int]:
    """Per-category tallies plus the policy-fluctuation count.

    Returns a dict of category name → count (only categories that
    occurred) with an extra ``"policy_changes"`` entry — the same
    canonical shape as
    :meth:`~repro.core.instability.CategoryCounts.nonzero_dict`.
    """
    counts: Dict[str, int] = {}
    policy_changes = 0
    for category, policy in reference_classify(records):
        counts[category] = counts.get(category, 0) + 1
        if policy:
            policy_changes += 1
    result = {name: counts[name] for name in sorted(counts)}
    result["policy_changes"] = policy_changes
    return result


def reference_counts_by_peer(records: Iterable) -> Dict[int, Dict[str, int]]:
    """Per-peer-AS category tallies (Figure 6's per-peer points)."""
    records = list(records)
    labels = reference_classify(records)
    result: Dict[int, Dict[str, int]] = {}
    for record, (category, policy) in zip(records, labels):
        table = result.setdefault(record.peer_asn, {"policy_changes": 0})
        table[category] = table.get(category, 0) + 1
        if policy:
            table["policy_changes"] += 1
    return result


def reference_counts_by_prefix(records: Iterable) -> Dict[str, int]:
    """Events per prefix, keyed ``"network/length"`` with the network
    as a plain integer (no address rendering to depend on)."""
    result: Dict[str, int] = {}
    for record in records:
        key = f"{record.prefix.network}/{record.prefix.length}"
        result[key] = result.get(key, 0) + 1
    return result


def reference_bin_counts(
    records: Iterable,
    bin_width: float = 600.0,
    start: float = 0.0,
    end: Optional[float] = None,
) -> List[int]:
    """Per-bin record counts over ``[start, end)`` (the Figure 2–5
    time-series input).  ``end`` defaults to one bin past the latest
    record, matching :func:`repro.analysis.timeseries.bin_records`."""
    times = [record.time for record in records]
    if not times:
        return []
    if end is None:
        end = max(times) + bin_width
    n_bins = max(1, -int(-(end - start) // bin_width))
    counts = [0] * n_bins
    for time in times:
        index = int((time - start) // bin_width)
        if 0 <= index < n_bins:
            counts[index] += 1
    return counts


def reference_interarrival_histogram(
    records: Iterable,
    category: Optional[str] = None,
) -> List[int]:
    """Figure 8's per-bin gap counts, computed the obvious way.

    Gaps are between consecutive events of each (prefix, peer AS)
    pair — the paper's Prefix+AS unit — optionally restricted to one
    taxonomy category; gaps above 24 hours are dropped.
    """
    records = list(records)
    labels = reference_classify(records)
    by_pair: Dict[tuple, List[float]] = {}
    for record, (name, _) in zip(records, labels):
        if category is not None and name != category:
            continue
        key = (record.prefix.network, record.prefix.length, record.peer_asn)
        by_pair.setdefault(key, []).append(record.time)
    counts = [0] * len(FIGURE8_EDGES)
    for times in by_pair.values():
        times.sort()
        for earlier, later in zip(times, times[1:]):
            gap = later - earlier
            for index, edge in enumerate(FIGURE8_EDGES):
                if gap <= edge:
                    counts[index] += 1
                    break
    return counts


# -- adversarial-event detection (the oracle for repro.analysis.detection) --

#: Detection flag bits, spelled out locally (the detection tier's
#: canonical values — golden digests depend on them staying put).
DETECTION_FLAGS: Tuple[Tuple[int, str], ...] = (
    (1, "moas_conflict"),
    (2, "origin_change"),
    (4, "subprefix_foreign"),
    (8, "subprefix_deagg"),
    (16, "valley_violation"),
    (32, "forged_edge"),
)


def _reference_path_flags(path: tuple, edges) -> int:
    """Valley / forged-edge bits for one sender-first AS path.

    ``edges`` maps ``(u, v) -> "up" | "down" | "peer"`` — the direction
    a route travels when ``u`` exports it to ``v`` (the plain-dict form
    of :meth:`repro.topology.relationships.AsRelationships.edges`).  The
    final export to the observing collector is a peering session, so a
    route is a leak (valley) whenever an up or peer hop follows any
    non-up hop — including that implicit last one.
    """
    if edges is None or len(path) < 2:
        return 0
    collapsed: List[int] = []
    for asn in path:
        if not collapsed or collapsed[-1] != asn:
            collapsed.append(asn)
    if len(collapsed) < 2:
        return 0
    route = list(reversed(collapsed))  # origin first, sender last
    hops: List[str] = []
    for u, v in zip(route, route[1:]):
        relation = edges.get((u, v))
        if relation is None:
            return 32  # forged_edge
        hops.append(relation)
    # The implicit final hop: sender exports to the observer, a peer.
    hops.append("peer")
    seen_non_up = False
    for relation in hops:
        if relation == "up" or relation == "peer":
            if seen_non_up:
                return 16  # valley_violation
        if relation != "up":
            seen_non_up = True
    return 0


def reference_detect(records: Iterable, edges=None) -> List[int]:
    """Detection flag bitmask per record, computed the obvious way.

    State is three dicts: which origin each (peer, prefix) route
    currently announces, the multiset of origins currently announcing
    each exact prefix, and the last origin ever announced per prefix
    (kept across withdrawals).  Per announcement, in order: path
    checks, retire the peer's previous origin, MOAS against the
    remaining concurrent origins, origin-change against the historical
    origin, sub-prefix check against the longest active strict
    supernet, then record the new origin.
    """
    route_origin: Dict[tuple, int] = {}
    origin_count: Dict[tuple, Dict[int, int]] = {}
    last_origin: Dict[tuple, int] = {}
    flags_out: List[int] = []

    def retire(p: tuple, origin: int) -> None:
        bucket = origin_count[p]
        bucket[origin] -= 1
        if bucket[origin] == 0:
            del bucket[origin]
        if not bucket:
            del origin_count[p]

    for record in records:
        net, plen = record.prefix.network, record.prefix.length
        p = (net, plen)
        key = (record.peer_id, net, plen)
        flags = 0
        if record.is_announce:
            path = tuple(record.attributes.as_path)
            origin = path[-1] if path else record.peer_asn
            flags = _reference_path_flags(path, edges)
            old = route_origin.get(key)
            if old is not None:
                retire(p, old)
            for other in origin_count.get(p, {}):
                if other != origin:
                    flags |= 1  # moas_conflict
                    break
            if p in last_origin and last_origin[p] != origin:
                flags |= 2  # origin_change
            last_origin[p] = origin
            best = None
            for qnet, qlen in origin_count:
                if (
                    qlen < plen
                    and (net >> (32 - qlen)) << (32 - qlen) == qnet
                    and (best is None or qlen > best[1])
                ):
                    best = (qnet, qlen)
            if best is not None:
                if origin in origin_count[best]:
                    flags |= 8  # subprefix_deagg
                else:
                    flags |= 4  # subprefix_foreign
            if p not in origin_count:
                origin_count[p] = {}
            origin_count[p][origin] = origin_count[p].get(origin, 0) + 1
            route_origin[key] = origin
        else:
            old = route_origin.pop(key, None)
            if old is not None:
                retire(p, old)
        flags_out.append(flags)
    return flags_out


def reference_detection_counts(records: Iterable, edges=None) -> Dict[str, int]:
    """Cumulative per-flag totals (canonical flag order)."""
    flags = reference_detect(list(records), edges)
    result = {name: 0 for _, name in DETECTION_FLAGS}
    for value in flags:
        for bit, name in DETECTION_FLAGS:
            if value & bit:
                result[name] += 1
    return result


def reference_stability(records: Iterable) -> Dict[str, Tuple[int, int, int]]:
    """Per-prefix ``(events, instability, withdrawals)`` counters,
    keyed ``"network/length"`` — the integer inputs of the path-vector
    stability score (instability = AADiff/WADiff/WADup events,
    withdrawals = plain withdrawals of a reachable route)."""
    records = list(records)
    labels = reference_classify(records)
    result: Dict[str, List[int]] = {}
    for record, (category, _) in zip(records, labels):
        key = f"{record.prefix.network}/{record.prefix.length}"
        counters = result.setdefault(key, [0, 0, 0])
        counters[0] += 1
        if category in INSTABILITY:
            counters[1] += 1
        elif category == "PLAIN_WITHDRAW":
            counters[2] += 1
    return {key: tuple(value) for key, value in result.items()}


def reference_detection_digest(records: Iterable, edges=None) -> str:
    """SHA-256 over the detected stream — one line per record with its
    flag bitmask, rendered exactly like
    :func:`repro.analysis.detection.detection_digest` (without
    importing it), so all three detection tiers share one digest coin.
    """
    records = list(records)
    flags = reference_detect(records, edges)
    digest = hashlib.sha256()
    for record, value in zip(records, flags):
        line = (
            f"{record.time!r}|{record.peer_id}|{record.peer_asn}"
            f"|{record.prefix.network}/{record.prefix.length}"
            f"|{'A' if record.is_announce else 'W'}|{value}\n"
        )
        digest.update(line.encode("ascii"))
    return digest.hexdigest()


def reference_digest(records: Iterable) -> str:
    """SHA-256 over the classified stream, record by record.

    One line per record — time, peer, prefix, kind, label, policy flag
    — so any divergence anywhere in the stream changes the digest.
    The differential runner computes the same rendering from the
    optimized tiers' labels and compares.
    """
    records = list(records)
    labels = reference_classify(records)
    digest = hashlib.sha256()
    for record, (category, policy) in zip(records, labels):
        line = (
            f"{record.time!r}|{record.peer_id}|{record.peer_asn}"
            f"|{record.prefix.network}/{record.prefix.length}"
            f"|{'A' if record.is_announce else 'W'}"
            f"|{category}|{int(policy)}\n"
        )
        digest.update(line.encode("ascii"))
    return digest.hexdigest()
