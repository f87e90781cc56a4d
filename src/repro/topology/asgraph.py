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

The output is a :class:`networkx.Graph` whose nodes carry
:class:`AsNode` records (tier, address plan, multi-homing flag), plus
helpers the simulator and the statistical generator both use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..net.addressing import (
    AddressPlan,
    SwampAllocator,
    provider_allocator,
)
from ..net.prefix import Prefix

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Tier", "AsNode", "AsGraph", "build_internet_graph"]


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

    @property
    def announced_prefixes(self) -> List[Prefix]:
        return self.plan.announced


class AsGraph:
    """A generated AS topology: the graph plus typed node access."""

    def __init__(self, graph: nx.Graph) -> None:
        self.graph = graph

    def node(self, asn: int) -> AsNode:
        return self.graph.nodes[asn]["record"]

    def nodes_in_tier(self, tier: Tier) -> List[AsNode]:
        return [
            self.node(asn)
            for asn in self.graph.nodes
            if self.node(asn).tier is tier
        ]

    @property
    def backbones(self) -> List[AsNode]:
        return self.nodes_in_tier(Tier.BACKBONE)

    @property
    def regionals(self) -> List[AsNode]:
        return self.nodes_in_tier(Tier.REGIONAL)

    @property
    def customers(self) -> List[AsNode]:
        return self.nodes_in_tier(Tier.CUSTOMER)

    def providers_of(self, asn: int) -> List[int]:
        """The upstream ASes of ``asn`` (neighbors in a higher tier)."""
        mine = self.node(asn).tier
        order = {Tier.BACKBONE: 0, Tier.REGIONAL: 1, Tier.CUSTOMER: 2}
        return [
            neighbor
            for neighbor in self.graph.neighbors(asn)
            if order[self.node(neighbor).tier] < order[mine]
        ]

    def all_prefixes(self) -> List[Prefix]:
        """Every globally visible prefix in the topology."""
        result: List[Prefix] = []
        for asn in self.graph.nodes:
            result.extend(self.node(asn).announced_prefixes)
        return result

    def multi_homed_fraction(self) -> float:
        """Fraction of customer ASes with two or more providers."""
        customers = self.customers
        if not customers:
            return 0.0
        return sum(1 for c in customers if c.multi_homed) / len(customers)

    def __len__(self) -> int:
        return self.graph.number_of_nodes()


def build_internet_graph(
    n_backbones: int = 8,
    n_regionals: int = 24,
    n_customers: int = 120,
    multi_homed_fraction: float = 0.25,
    legacy_fraction: float = 0.3,
    prefixes_per_customer: Tuple[int, int] = (1, 4),
    seed: int = 0,
) -> AsGraph:
    """Generate a hierarchical Internet-shaped AS graph.

    ``multi_homed_fraction`` defaults to the paper's measured ">25
    percent of prefixes are currently multi-homed"; ``legacy_fraction``
    controls how many customers hold unaggregatable swamp space.
    Deterministic for a given ``seed``.
    """
    # The package's one use of networkx: imported here so that the
    # simulator, campaign and CLI entry points, which reach this module
    # through ``repro.topology``, neither pay for it nor require it.
    import networkx as nx

    rng = random.Random(seed)
    swamp = SwampAllocator(random.Random(seed + 1))
    graph = nx.Graph()
    next_asn = 1

    backbones: List[AsNode] = []
    for i in range(n_backbones):
        allocator = provider_allocator(i)
        node = AsNode(asn=next_asn, tier=Tier.BACKBONE)
        node.plan.aggregates.append(allocator.block)
        graph.add_node(next_asn, record=node, allocator=allocator)
        backbones.append(node)
        next_asn += 1
    # Backbones interconnect in a full mesh (the exchange-point core).
    for i, a in enumerate(backbones):
        for b in backbones[i + 1:]:
            graph.add_edge(a.asn, b.asn)

    regionals: List[AsNode] = []
    for _ in range(n_regionals):
        node = AsNode(asn=next_asn, tier=Tier.REGIONAL)
        upstreams = rng.sample(backbones, k=min(2, len(backbones)))
        # A regional gets a /16-ish block from its primary upstream.
        allocator = graph.nodes[upstreams[0].asn]["allocator"]
        block = allocator.allocate(16)
        node.plan.aggregates.append(block)
        graph.add_node(next_asn, record=node, block=block)
        for upstream in upstreams:
            graph.add_edge(next_asn, upstream.asn)
        regionals.append(node)
        next_asn += 1

    providers = backbones + regionals
    for _ in range(n_customers):
        node = AsNode(asn=next_asn, tier=Tier.CUSTOMER)
        node.legacy = rng.random() < legacy_fraction
        node.multi_homed = rng.random() < multi_homed_fraction
        n_prefixes = rng.randint(*prefixes_per_customer)
        primary = rng.choice(providers)
        graph.add_node(next_asn, record=node)
        graph.add_edge(next_asn, primary.asn)
        if node.multi_homed:
            others = [p for p in providers if p.asn != primary.asn]
            secondary = rng.choice(others)
            graph.add_edge(next_asn, secondary.asn)
        if node.legacy or node.multi_homed:
            # Swamp space, or punched-out provider space: globally
            # visible specifics that cannot be aggregated away.
            node.plan.specifics.extend(swamp.allocate_many(n_prefixes))
        else:
            # Single-homed modern customer: space inside the provider
            # block; the provider's aggregate covers it, so it adds no
            # globally visible prefix of its own.
            pass
        next_asn += 1

    return AsGraph(graph)
