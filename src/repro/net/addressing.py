"""Address-space allocation models.

The paper attributes part of the Internet's poor aggregation to *how
address space was allocated*: pre-CIDR "swamp" space was handed to end
sites directly by the InterNIC (so it cannot be aggregated by any
provider), while post-CIDR space is carved from provider blocks (so a
provider can announce one supernet).  The topology builder uses this
module to give each simulated AS a realistic mix of both kinds of space,
which in turn determines how many globally-visible prefixes it announces
and how well it can hide customer instability.

Two allocators are provided:

- :class:`ProviderBlockAllocator` — hands each provider a large CIDR
  block and sub-allocates customer prefixes from it.
- :class:`SwampAllocator` — hands out scattered, unaggregatable /24s from
  the classic 192/8 swamp.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .prefix import MAX_PREFIX_LENGTH, Prefix

__all__ = [
    "AddressExhausted",
    "ProviderBlockAllocator",
    "SwampAllocator",
    "AddressPlan",
]


class AddressExhausted(RuntimeError):
    """Raised when an allocator has no space left at the requested size."""


class ProviderBlockAllocator:
    """Sequentially sub-allocates prefixes out of one provider CIDR block.

    Allocation is a simple first-fit bump allocator aligned to the
    requested prefix size — adequate because simulated providers allocate
    customers in arrival order, exactly how early provider blocks filled.
    """

    def __init__(self, block: Prefix) -> None:
        self.block = block
        self._cursor = block.network

    def allocate(self, length: int) -> Prefix:
        """Allocate the next free ``/length`` from the block."""
        if length < self.block.length or length > MAX_PREFIX_LENGTH:
            raise AddressExhausted(
                f"cannot allocate /{length} from {self.block}"
            )
        size = 1 << (MAX_PREFIX_LENGTH - length)
        # Align the cursor up to the allocation size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size - 1 > self.block.broadcast:
            raise AddressExhausted(
                f"{self.block} exhausted for /{length}"
            )
        self._cursor = aligned + size
        return Prefix(aligned, length)

    def allocate_many(self, length: int, count: int) -> List[Prefix]:
        """Allocate ``count`` consecutive ``/length`` prefixes."""
        return [self.allocate(length) for _ in range(count)]


class SwampAllocator:
    """Hands out scattered /24s from pre-CIDR class-C space.

    Swamp allocations are deliberately shuffled so consecutive requests
    land far apart and can never aggregate — matching the paper's
    description of early InterNIC allocations.
    """

    #: The classic class-C swamp, 192.0.0.0/8 through 205.0.0.0/8.
    SWAMP_BLOCKS = (
        Prefix.parse("192.0.0.0/8"),
        Prefix.parse("193.0.0.0/8"),
        Prefix.parse("198.0.0.0/8"),
        Prefix.parse("199.0.0.0/8"),
        Prefix.parse("202.0.0.0/8"),
        Prefix.parse("204.0.0.0/8"),
    )

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0)
        self._block_iter = iter(self.SWAMP_BLOCKS)
        self._base = 0  # the current block's network
        self._left = 0  # its /24s not yet handed out
        #: Where the shuffle moved a /24: index in the block → network.
        self._moved: Dict[int, int] = {}

    def allocate(self) -> Prefix:
        """Allocate one scattered /24.

        Each call is one step of a Fisher–Yates shuffle of the current
        block, run lazily from its top: the order ``random.shuffle``
        would give the block's /24s, popped from the end, without
        building the 65 536 of them up front.
        """
        if not self._left:
            block = next(self._block_iter, None)
            if block is None:
                raise AddressExhausted("swamp space exhausted")
            self._base = block.network
            self._left = 1 << (24 - block.length)
        self._left -= 1
        i = self._left
        moved = self._moved
        top = moved.pop(i, self._base + (i << 8))
        j = self._rng.randrange(i + 1) if i else i
        if j != i:
            top, moved[j] = moved.get(j, self._base + (j << 8)), top
        return Prefix(top, 24)

    def allocate_many(self, count: int) -> List[Prefix]:
        """Allocate ``count`` scattered /24s."""
        return [self.allocate() for _ in range(count)]


@dataclass
class AddressPlan:
    """The address holdings of one simulated autonomous system.

    ``aggregates`` are the provider-block supernets the AS can announce
    on behalf of well-behaved single-homed customers; ``specifics`` are
    prefixes that must stay globally visible (swamp space plus
    multi-homed customer blocks punched out of aggregates).
    """

    aggregates: List[Prefix] = field(default_factory=list)
    specifics: List[Prefix] = field(default_factory=list)

    @property
    def announced(self) -> List[Prefix]:
        """Everything this AS originates into BGP."""
        return sorted(set(self.aggregates) | set(self.specifics))


#: Provider blocks assigned to simulated backbones, spaced across the
#: post-CIDR address ranges (RFC 1466 style 8-bit-aligned /8 carving).
PROVIDER_BLOCK_BASES = tuple(
    Prefix(base << 24, 8)
    for base in (12, 24, 38, 63, 64, 128, 134, 140, 152, 160, 166, 170)
)


def provider_allocator(index: int) -> ProviderBlockAllocator:
    """A deterministic allocator for the ``index``-th provider.

    Providers beyond the base-block list split later /8s into /10s so an
    arbitrary number of providers can be accommodated.
    """
    bases = PROVIDER_BLOCK_BASES
    if index < len(bases):
        return ProviderBlockAllocator(bases[index])
    overflow = index - len(bases)
    block8 = Prefix((208 + overflow // 4) << 24, 8)
    sub = list(block8.subnets(10))[overflow % 4]
    return ProviderBlockAllocator(sub)
