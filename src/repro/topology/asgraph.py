"""Internet-shaped AS-level topology generation.

The mid-1996 Internet the paper measured: roughly 1 300 autonomous
systems and 42 000 prefixes, with "six to eight ISPs" dominating the
default-free routing tables, a middle tier of regional providers, and a
long tail of customer ASes.  This module generates topologies with that
shape at configurable scale:

- **Tier 1 (backbones)** interconnect at the public exchanges (full
  mesh among themselves) and hold large provider CIDR blocks.
- **Tier 2 (regionals)** attach to 1–2 backbones and hold smaller
  blocks, partially aggregated.
- **Tier 3 (customers)** attach to one provider (or two when
  multi-homed) and originate a handful of prefixes — provider-block
  space when modern, swamp /24s when pre-CIDR.

:func:`internet_topology` returns the ASes as :class:`AsNode` records
(tier, address plan, multi-homing flag) and their adjacencies as plain
lists; the simulator builds Figure 10's exchange from them
(:func:`repro.sim.studies.core_exchange`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import List, Tuple

from ..net.addressing import (
    AddressPlan,
    SwampAllocator,
    provider_allocator,
)

__all__ = ["Tier", "AsNode", "internet_topology"]


class Tier(Enum):
    """Provider hierarchy levels."""

    BACKBONE = auto()
    REGIONAL = auto()
    CUSTOMER = auto()


@dataclass
class AsNode:
    """One autonomous system in the generated topology."""

    asn: int
    tier: Tier
    plan: AddressPlan = field(default_factory=AddressPlan)
    multi_homed: bool = False
    #: swamp-space holder (pre-CIDR allocations; unaggregatable)
    legacy: bool = False


def internet_topology(
    n_backbones: int = 8,
    n_regionals: int = 24,
    n_customers: int = 120,
    multi_homed_fraction: float = 0.25,
    legacy_fraction: float = 0.3,
    prefixes_per_customer: Tuple[int, int] = (1, 4),
    seed: int = 0,
) -> Tuple[List[AsNode], List[Tuple[int, int]]]:
    """Generate a hierarchical Internet-shaped AS topology: the AS
    records in ASN order (from 1) and the adjacencies in the order
    they were drawn, a customer's ``(customer, provider)`` pairs
    primary first.

    ``multi_homed_fraction`` defaults to the paper's measured ">25
    percent of prefixes are currently multi-homed"; ``legacy_fraction``
    controls how many customers hold unaggregatable swamp space.
    Deterministic for a given ``seed``.
    """
    rng = random.Random(seed)
    swamp = SwampAllocator(random.Random(seed + 1))
    nodes: List[AsNode] = []
    edges: List[Tuple[int, int]] = []

    backbones: List[AsNode] = []
    allocators = {}
    for i in range(n_backbones):
        allocator = provider_allocator(i)
        node = AsNode(asn=len(nodes) + 1, tier=Tier.BACKBONE)
        node.plan.aggregates.append(allocator.block)
        allocators[node.asn] = allocator
        nodes.append(node)
        backbones.append(node)
    # Backbones interconnect in a full mesh (the exchange-point core).
    for i, a in enumerate(backbones):
        for b in backbones[i + 1:]:
            edges.append((a.asn, b.asn))

    regionals: List[AsNode] = []
    for _ in range(n_regionals):
        node = AsNode(asn=len(nodes) + 1, tier=Tier.REGIONAL)
        upstreams = rng.sample(backbones, k=min(2, len(backbones)))
        # A regional gets a /16-ish block from its primary upstream.
        allocator = allocators[upstreams[0].asn]
        node.plan.aggregates.append(allocator.allocate(16))
        nodes.append(node)
        edges.extend((node.asn, upstream.asn) for upstream in upstreams)
        regionals.append(node)

    providers = backbones + regionals
    for _ in range(n_customers):
        node = AsNode(asn=len(nodes) + 1, tier=Tier.CUSTOMER)
        node.legacy = rng.random() < legacy_fraction
        node.multi_homed = rng.random() < multi_homed_fraction
        n_prefixes = rng.randint(*prefixes_per_customer)
        primary = rng.choice(providers)
        nodes.append(node)
        edges.append((node.asn, primary.asn))
        if node.multi_homed:
            others = [p for p in providers if p.asn != primary.asn]
            edges.append((node.asn, rng.choice(others).asn))
        if node.legacy or node.multi_homed:
            # Swamp space, or punched-out provider space: globally
            # visible specifics that cannot be aggregated away.  A
            # single-homed modern customer's space sits inside its
            # provider's block, whose aggregate covers it.
            node.plan.specifics.extend(swamp.allocate_many(n_prefixes))
    return nodes, edges
