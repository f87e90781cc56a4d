"""Seeded fuzz streams for the differential runner.

Two kinds of generator, both pure functions of their seed:

- :func:`fuzz_stream` — a random update stream over a small vocabulary
  of peers, prefixes, and attribute bundles.  The vocabulary is kept
  deliberately tiny so the classifier's interesting transitions (AADup
  vs AADiff, WADup vs WADiff, WWDup runs) occur constantly instead of
  almost never.
- the ``adversarial_*`` generators — deterministic constructions of the
  known hard cases for the columnar tier: state carried across batch
  boundaries, many records at one timestamp (where an unstable sort
  would reorder), re-announcement after explicit withdrawal (the WADup
  vs WADiff memory), and attribute-interning collisions (bundles that
  share a forwarding key but differ in policy attributes, or are equal
  across distinct Python objects).

Every generator returns a :class:`FuzzStream`: the records plus the
batch boundaries the differential runner should split them at (the
boundaries are part of the adversarial construction — a cross-batch
case is only hard if the batches actually cut through it).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..bgp.attributes import AsPath, PathAttributes
from ..collector.record import UpdateKind, UpdateRecord
from ..net.prefix import Prefix
from ..topology.relationships import AsRelationships

__all__ = [
    "FuzzStream",
    "fuzz_stream",
    "adversarial_cross_batch_carry",
    "adversarial_duplicate_timestamps",
    "adversarial_reannounce_after_withdraw",
    "adversarial_interning_collisions",
    "ADVERSARIAL_GENERATORS",
    "detection_topology",
    "detection_moas_churn",
    "detection_subprefix_overlap",
    "detection_valley_paths",
    "detection_origin_flip",
    "DETECTION_GENERATORS",
]


@dataclass
class FuzzStream:
    """A generated stream plus how to batch it."""

    name: str
    seed: int
    records: List[UpdateRecord]
    #: Indices where the columnar tier should cut batches (sorted,
    #: exclusive of 0 and len); the runner also tries its own cuts.
    boundaries: List[int] = field(default_factory=list)


def _peers(n: int) -> List[Tuple[int, int]]:
    """(peer_id, peer_asn) pairs; ids mimic exchange-point addresses."""
    return [((192 << 24) + i + 1, 200 + i) for i in range(n)]


def _prefixes(n: int) -> List[Prefix]:
    return [Prefix((10 << 24) + i * 256, 24) for i in range(n)]


def _attr_vocab(peer_id: int, asn: int) -> List[PathAttributes]:
    """A small bundle vocabulary for one peer: two forwarding variants
    (different ASPATH), each with policy-only variations (MED,
    communities) that share the forwarding key."""
    primary = AsPath((asn, 3000 + asn))
    alternate = AsPath((asn, 5000 + asn, 3000 + asn))
    return [
        PathAttributes(as_path=primary, next_hop=peer_id),
        PathAttributes(as_path=primary, next_hop=peer_id, med=20),
        PathAttributes(as_path=primary, next_hop=peer_id, med=40),
        PathAttributes(
            as_path=primary, next_hop=peer_id, communities=frozenset({1})
        ),
        PathAttributes(as_path=alternate, next_hop=peer_id),
        PathAttributes(as_path=alternate, next_hop=peer_id, med=20),
    ]


def fuzz_stream(
    seed: int,
    n_records: int = 120,
    n_peers: int = 3,
    n_prefixes: int = 4,
    duplicate_time_probability: float = 0.2,
    withdraw_probability: float = 0.4,
) -> FuzzStream:
    """A random stream (see module docstring); pure function of args.

    Times are non-decreasing with a configurable chance of exact ties;
    batch boundaries are drawn randomly, including boundaries that land
    inside tie runs.
    """
    rng = random.Random(seed)
    peers = _peers(n_peers)
    prefixes = _prefixes(n_prefixes)
    vocab: Dict[int, List[PathAttributes]] = {
        peer_id: _attr_vocab(peer_id, asn) for peer_id, asn in peers
    }
    records: List[UpdateRecord] = []
    time = 0.0
    for _ in range(n_records):
        if records and rng.random() < duplicate_time_probability:
            pass  # exact tie with the previous record
        else:
            time += rng.choice([0.25, 1.0, 30.0, 60.0, 613.7])
        peer_id, asn = rng.choice(peers)
        prefix = rng.choice(prefixes)
        if rng.random() < withdraw_probability:
            records.append(
                UpdateRecord(time, peer_id, asn, prefix, UpdateKind.WITHDRAW)
            )
        else:
            attrs = rng.choice(vocab[peer_id])
            records.append(
                UpdateRecord(
                    time, peer_id, asn, prefix, UpdateKind.ANNOUNCE, attrs
                )
            )
    n_boundaries = rng.randint(0, 3)
    boundaries = sorted(
        rng.sample(range(1, max(2, len(records))), n_boundaries)
    ) if len(records) > 2 else []
    return FuzzStream("fuzz", seed, records, boundaries)


# -- adversarial constructions ----------------------------------------------


def adversarial_cross_batch_carry(seed: int) -> FuzzStream:
    """Sequences whose classification depends on state carried across
    a batch boundary: the batch cut lands between the W and the A of
    WA pairs, between two As of AA pairs, and mid-WWDup-run."""
    rng = random.Random(seed)
    peers = _peers(2)
    prefixes = _prefixes(3)
    records: List[UpdateRecord] = []
    time = 0.0

    def emit(peer, prefix, attrs=None):
        nonlocal time
        time += rng.choice([0.0, 30.0])
        peer_id, asn = peer
        if attrs is None:
            records.append(
                UpdateRecord(time, peer_id, asn, prefix, UpdateKind.WITHDRAW)
            )
        else:
            records.append(
                UpdateRecord(
                    time, peer_id, asn, prefix, UpdateKind.ANNOUNCE, attrs
                )
            )

    boundaries: List[int] = []
    for peer in peers:
        vocab = _attr_vocab(*peer)
        for prefix in prefixes:
            primary, alternate = vocab[0], vocab[4]
            # Establish reachability, then cut between W and re-A
            # (WADup vs WADiff needs last_attributes to survive the
            # batch boundary AND the explicit withdrawal).
            emit(peer, prefix, primary)
            emit(peer, prefix)  # PLAIN_WITHDRAW
            boundaries.append(len(records))
            emit(peer, prefix, primary if rng.random() < 0.5 else alternate)
            # Cut between two announcements (AADup/AADiff carry).
            boundaries.append(len(records))
            emit(peer, prefix, alternate)
            # Cut inside a WWDup run (reachability carry).
            emit(peer, prefix)
            boundaries.append(len(records))
            emit(peer, prefix)
            emit(peer, prefix)
    return FuzzStream(
        "cross_batch_carry", seed, records, sorted(set(boundaries))
    )


def adversarial_duplicate_timestamps(seed: int) -> FuzzStream:
    """Long runs of records at the same instant.

    The columnar tier groups records with a stable sort; an unstable
    sort (or a time-keyed tiebreak) would reorder same-time records of
    one (peer, prefix) pair and flip their labels.  Batch boundaries
    are placed inside the tie runs.
    """
    rng = random.Random(seed)
    peers = _peers(2)
    prefixes = _prefixes(2)
    records: List[UpdateRecord] = []
    boundaries: List[int] = []
    time = 0.0
    for _ in range(8):
        time += 30.0
        # Everything in this burst shares one timestamp.
        for _ in range(rng.randint(4, 10)):
            peer_id, asn = rng.choice(peers)
            prefix = rng.choice(prefixes)
            if rng.random() < 0.4:
                records.append(
                    UpdateRecord(
                        time, peer_id, asn, prefix, UpdateKind.WITHDRAW
                    )
                )
            else:
                attrs = rng.choice(_attr_vocab(peer_id, asn))
                records.append(
                    UpdateRecord(
                        time, peer_id, asn, prefix, UpdateKind.ANNOUNCE, attrs
                    )
                )
        boundaries.append(len(records) - rng.randint(1, 3))
    boundaries = sorted(
        {b for b in boundaries if 0 < b < len(records)}
    )
    return FuzzStream("duplicate_timestamps", seed, records, boundaries)


def adversarial_reannounce_after_withdraw(seed: int) -> FuzzStream:
    """Every WADup/WADiff shape: withdraw then re-announce with the
    same bundle, a policy-only change (same forwarding key — still
    WADup), and a forwarding change; plus withdraw-first starts
    (WWDup before any announcement)."""
    rng = random.Random(seed)
    peer_id, asn = _peers(1)[0]
    vocab = _attr_vocab(peer_id, asn)
    records: List[UpdateRecord] = []
    time = 0.0

    def emit(prefix, attrs=None):
        nonlocal time
        time += rng.choice([1.0, 30.0])
        if attrs is None:
            records.append(
                UpdateRecord(time, peer_id, asn, prefix, UpdateKind.WITHDRAW)
            )
        else:
            records.append(
                UpdateRecord(
                    time, peer_id, asn, prefix, UpdateKind.ANNOUNCE, attrs
                )
            )

    prefixes = _prefixes(4)
    # Withdrawals before any announcement: WWDup from record one.
    emit(prefixes[0])
    emit(prefixes[0])
    # W then identical re-announce: WADup.
    emit(prefixes[1], vocab[0])
    emit(prefixes[1])
    emit(prefixes[1], vocab[0])
    # W then policy-only change: same forwarding key, still WADup.
    emit(prefixes[2], vocab[0])
    emit(prefixes[2])
    emit(prefixes[2], vocab[1])
    # W then forwarding change: WADiff.  Then W, W (PLAIN + WWDup),
    # then re-announce of the *pre-withdrawal* bundle: WADup again.
    emit(prefixes[3], vocab[0])
    emit(prefixes[3])
    emit(prefixes[3], vocab[4])
    emit(prefixes[3])
    emit(prefixes[3])
    emit(prefixes[3], vocab[4])
    boundary = rng.randint(1, len(records) - 1)
    return FuzzStream(
        "reannounce_after_withdraw", seed, records, [boundary]
    )


def adversarial_interning_collisions(seed: int) -> FuzzStream:
    """Attribute bundles built to stress the interning table.

    Distinct Python objects with equal values must intern to one id;
    bundles sharing a forwarding key but differing in MED/communities
    must get one forwarding id but distinct attribute ids (AADup with
    policy fluctuation); the same ASPATH used by two peers with
    different next hops must NOT share a forwarding id.
    """
    rng = random.Random(seed)
    (peer_a, asn_a), (peer_b, asn_b) = _peers(2)
    prefix = _prefixes(1)[0]
    shared_path = AsPath((asn_a, 9001))
    records: List[UpdateRecord] = []
    time = 0.0

    def announce(peer_id, asn, attrs):
        nonlocal time
        time += 30.0
        records.append(
            UpdateRecord(time, peer_id, asn, prefix, UpdateKind.ANNOUNCE, attrs)
        )

    # Equal-value bundles from distinct objects (fresh constructions).
    for _ in range(3):
        announce(
            peer_a, asn_a,
            PathAttributes(as_path=AsPath((asn_a, 9001)), next_hop=peer_a),
        )
    # Policy-only variations on one forwarding key, shuffled.
    variants = [
        PathAttributes(as_path=shared_path, next_hop=peer_a, med=med)
        for med in (None, 20, 40, 20)
    ]
    rng.shuffle(variants)
    for attrs in variants:
        announce(peer_a, asn_a, attrs)
    # Same ASPATH, different peer and next hop: a different route.
    announce(
        peer_b, asn_b,
        PathAttributes(as_path=shared_path, next_hop=peer_b),
    )
    announce(
        peer_b, asn_b,
        PathAttributes(as_path=shared_path, next_hop=peer_b, med=20),
    )
    boundary = rng.randint(1, len(records) - 1)
    return FuzzStream("interning_collisions", seed, records, [boundary])


#: name → generator(seed); the differential campaign iterates these.
ADVERSARIAL_GENERATORS: Dict[str, Callable[[int], FuzzStream]] = {
    "cross_batch_carry": adversarial_cross_batch_carry,
    "duplicate_timestamps": adversarial_duplicate_timestamps,
    "reannounce_after_withdraw": adversarial_reannounce_after_withdraw,
    "interning_collisions": adversarial_interning_collisions,
}


# -- detection-tier constructions -------------------------------------------
#
# These streams target repro.analysis.detection: concurrent-origin
# (MOAS) multisets cut by batch boundaries, sub-prefix coverage,
# valley / forged paths against a declared topology, and origin
# history carried across withdrawals.  The topology below declares
# relationships for *every* path the fuzz generators above emit, so
# the detection differential can run over FUZZ_SEEDS streams too
# (their paths all read as clean customer routes).

#: Origin/transit ASNs of the detection vocabulary.
_DET_ORIGINS = (6500, 6502)
_DET_LEAKY_ORIGIN = 6501  # the transit's own provider — leak material
_DET_TRANSIT = 7000
_DET_LATERAL = 7001  # the transit's peer
_DET_FORGED = 8999  # declared nowhere


def detection_topology():
    """The declared AS relationships behind every generated stream.

    Returns :class:`repro.topology.relationships.AsRelationships`; pass
    ``.edges()`` to the dependency-free oracle.  Fuzz-vocabulary paths
    (``(asn, 3000+asn)``, ``(asn, 5000+asn, 3000+asn)``, the shared
    ``(asn, 9001)``) are all declared as customer chains, so plain fuzz
    streams carry no path flags; the ``detection_*`` vocabulary wires
    one transit with a provider and a lateral peer, making valleys and
    forgeries constructible on demand.
    """
    topology = AsRelationships()
    for _, asn in _peers(8):
        topology.add_provider(asn, 3000 + asn)
        topology.add_provider(5000 + asn, 3000 + asn)
        topology.add_provider(asn, 5000 + asn)
        topology.add_provider(asn, 9001)
        topology.add_provider(asn, _DET_TRANSIT)
    for origin in _DET_ORIGINS:
        topology.add_provider(_DET_TRANSIT, origin)
    topology.add_provider(_DET_LEAKY_ORIGIN, _DET_TRANSIT)
    topology.add_peer(_DET_TRANSIT, _DET_LATERAL)
    return topology


def _det_announce(records, time, peer, prefix, origins):
    """Append an announcement through the transit: path
    ``(peer_asn, 7000, *origins)``."""
    peer_id, asn = peer
    attrs = PathAttributes(
        as_path=AsPath((asn, _DET_TRANSIT) + tuple(origins)),
        next_hop=peer_id,
    )
    records.append(
        UpdateRecord(time, peer_id, asn, prefix, UpdateKind.ANNOUNCE, attrs)
    )


def detection_moas_churn(seed: int) -> FuzzStream:
    """Concurrent origins fighting over exact prefixes.

    Several peers announce the same prefixes under different origins
    with interleaved withdrawals, so the concurrent-origin multiset
    grows, shrinks, and empties repeatedly; batch boundaries land
    mid-conflict, forcing the columnar tier to carry a *populated*
    multiset across cuts."""
    rng = random.Random(seed)
    peers = _peers(3)
    prefixes = _prefixes(2)
    records: List[UpdateRecord] = []
    boundaries: List[int] = []
    time = 0.0
    for _ in range(40):
        time += rng.choice([0.0, 1.0, 30.0])
        peer = rng.choice(peers)
        prefix = rng.choice(prefixes)
        if rng.random() < 0.3:
            peer_id, asn = peer
            records.append(
                UpdateRecord(time, peer_id, asn, prefix, UpdateKind.WITHDRAW)
            )
        else:
            _det_announce(
                records, time, peer, prefix, (rng.choice(_DET_ORIGINS),)
            )
        if rng.random() < 0.15:
            boundaries.append(len(records))
    boundaries = sorted({b for b in boundaries if 0 < b < len(records)})
    return FuzzStream("detection_moas_churn", seed, records, boundaries)


def detection_subprefix_overlap(seed: int) -> FuzzStream:
    """Covering prefixes and more-specifics under shifting origins.

    A /16 cover, /20 middles, and /24 leaves are announced and
    withdrawn so the *longest active* covering prefix changes over
    time, and the same more-specific flips between deaggregation (own
    origin covers) and foreign sub-prefix (only other origins cover).
    """
    rng = random.Random(seed)
    peers = _peers(2)
    cover = Prefix(10 << 24, 16)
    middles = [Prefix((10 << 24) + (i << 12), 20) for i in range(2)]
    leaves = [Prefix((10 << 24) + (i << 8), 24) for i in range(4)]
    records: List[UpdateRecord] = []
    boundaries: List[int] = []
    time = 0.0

    def step(prefix, origin=None):
        nonlocal time
        time += rng.choice([0.0, 30.0])
        peer = rng.choice(peers)
        if origin is None:
            peer_id, asn = peer
            records.append(
                UpdateRecord(time, peer_id, asn, prefix, UpdateKind.WITHDRAW)
            )
        else:
            _det_announce(records, time, peer, prefix, (origin,))

    step(cover, _DET_ORIGINS[0])
    for _ in range(30):
        roll = rng.random()
        if roll < 0.2:
            # Toggle a middle cover under either origin.
            step(rng.choice(middles), rng.choice(_DET_ORIGINS))
        elif roll < 0.35:
            step(rng.choice(middles + [cover]))  # withdraw a cover
        else:
            step(rng.choice(leaves), rng.choice(_DET_ORIGINS))
        if rng.random() < 0.2:
            boundaries.append(len(records))
    boundaries = sorted({b for b in boundaries if 0 < b < len(records)})
    return FuzzStream("detection_subprefix_overlap", seed, records, boundaries)


def detection_valley_paths(seed: int) -> FuzzStream:
    """Clean customer routes, leaks, and forgeries side by side.

    Paths through the declared transit are valley-free
    (``origin → transit → peer``); paths originating at the transit's
    *provider* descend then re-export to the observer (a leak); paths
    through an undeclared ASN are forged; peer-lateral routes
    (``lateral → transit → peer``) violate up-after-peer.  Prepending
    is mixed in — collapsed before edge derivation, it must not change
    any verdict."""
    rng = random.Random(seed)
    peers = _peers(2)
    prefixes = _prefixes(3)
    records: List[UpdateRecord] = []
    time = 0.0
    shapes = (
        (_DET_ORIGINS[0],),  # clean
        (_DET_ORIGINS[1], _DET_ORIGINS[1]),  # clean, prepended
        (_DET_LEAKY_ORIGIN,),  # provider route re-exported: leak
        (_DET_LATERAL,),  # peer route re-exported: leak
        (_DET_FORGED,),  # undeclared adjacency: forgery
        (_DET_FORGED, _DET_ORIGINS[0]),  # forged mid-path
    )
    for _ in range(36):
        time += rng.choice([1.0, 30.0])
        _det_announce(
            records,
            time,
            rng.choice(peers),
            rng.choice(prefixes),
            rng.choice(shapes),
        )
    boundary = rng.randint(1, len(records) - 1)
    return FuzzStream("detection_valley_paths", seed, records, [boundary])


def detection_origin_flip(seed: int) -> FuzzStream:
    """Origin history across withdrawals.

    One prefix changes hands repeatedly with full withdrawals in
    between — the origin-change tracker must remember the last origin
    through the empty multiset, including across batch cuts placed
    exactly at the hand-over points."""
    rng = random.Random(seed)
    peer = _peers(1)[0]
    peer_id, asn = peer
    prefix = _prefixes(1)[0]
    records: List[UpdateRecord] = []
    boundaries: List[int] = []
    time = 0.0
    for flip in range(8):
        origin = _DET_ORIGINS[flip % len(_DET_ORIGINS)]
        for _ in range(rng.randint(1, 3)):
            time += 30.0
            _det_announce(records, time, peer, prefix, (origin,))
        time += 30.0
        records.append(
            UpdateRecord(time, peer_id, asn, prefix, UpdateKind.WITHDRAW)
        )
        boundaries.append(len(records))
    boundaries = sorted({b for b in boundaries if 0 < b < len(records)})
    return FuzzStream("detection_origin_flip", seed, records, boundaries)


#: name → generator(seed); the detection differential iterates these
#: on top of FUZZ_SEEDS and ADVERSARIAL_GENERATORS.
DETECTION_GENERATORS: Dict[str, Callable[[int], FuzzStream]] = {
    "detection_moas_churn": detection_moas_churn,
    "detection_subprefix_overlap": detection_subprefix_overlap,
    "detection_valley_paths": detection_valley_paths,
    "detection_origin_flip": detection_origin_flip,
}
