"""Unit tests for repro.net.addressing."""

import random

import pytest

from repro.net.addressing import (
    AddressExhausted,
    AddressPlan,
    ProviderBlockAllocator,
    SwampAllocator,
    provider_allocator,
)
from repro.net.prefix import Prefix


def P(text):
    return Prefix.parse(text)


def disjoint(a, b):
    return not (a.covers(b) or b.covers(a))


class TestProviderBlockAllocator:
    def test_sequential_disjoint(self):
        alloc = ProviderBlockAllocator(P("10.0.0.0/8"))
        a = alloc.allocate(16)
        b = alloc.allocate(16)
        assert a == P("10.0.0.0/16")
        assert b == P("10.1.0.0/16")
        assert disjoint(a, b)

    def test_alignment_after_smaller_alloc(self):
        alloc = ProviderBlockAllocator(P("10.0.0.0/8"))
        alloc.allocate(24)
        b = alloc.allocate(16)
        # /16 must be aligned, so it skips to the next /16 boundary.
        assert b == P("10.1.0.0/16")

    def test_exhaustion(self):
        alloc = ProviderBlockAllocator(P("10.0.0.0/24"))
        alloc.allocate(25)
        alloc.allocate(25)
        with pytest.raises(AddressExhausted):
            alloc.allocate(25)

    def test_rejects_wider_than_block(self):
        alloc = ProviderBlockAllocator(P("10.0.0.0/16"))
        with pytest.raises(AddressExhausted):
            alloc.allocate(8)

    def test_all_inside_block(self):
        block = P("10.0.0.0/8")
        alloc = ProviderBlockAllocator(block)
        for _ in range(50):
            assert alloc.allocate(20) in block

    def test_allocate_many(self):
        alloc = ProviderBlockAllocator(P("10.0.0.0/8"))
        got = alloc.allocate_many(18, 5)
        assert len({g.network for g in got}) == 5


class TestSwampAllocator:
    def test_deterministic_for_seed(self):
        a = SwampAllocator(random.Random(7)).allocate_many(20)
        b = SwampAllocator(random.Random(7)).allocate_many(20)
        assert a == b

    def test_all_are_24s_in_swamp(self):
        swamp_firsts = {192, 193, 198, 199, 202, 204}
        for p in SwampAllocator(random.Random(1)).allocate_many(100):
            assert p.length == 24
            assert (p.network >> 24) in swamp_firsts

    def test_no_duplicates(self):
        got = SwampAllocator(random.Random(3)).allocate_many(5000)
        assert len(set(got)) == len(got)

    def test_swamp_aggregates_poorly(self):
        got = SwampAllocator(random.Random(5)).allocate_many(200)
        # Scattered /24s should barely aggregate at all: almost none has
        # its /23 sibling among them.
        assert len({p.network >> 9 for p in got}) > 0.9 * len(got)

    def test_pops_follow_random_shuffle_across_a_block(self):
        """The lazy shuffle hands out what shuffling each whole block
        with the same RNG and popping from its end hands out — through
        the draw-free last /24 of a block and into the next block."""
        count = 65536 + 40
        rng = random.Random(17)
        free, blocks, want = [], iter(SwampAllocator.SWAMP_BLOCKS), []
        for _ in range(count):
            if not free:
                free = [p.network for p in next(blocks).subnets(24)]
                rng.shuffle(free)
            want.append(Prefix(free.pop(), 24))
        got = SwampAllocator(random.Random(17)).allocate_many(count)
        assert got == want


class TestAddressPlan:
    def test_announced_union_sorted_unique(self):
        plan = AddressPlan(
            aggregates=[P("10.0.0.0/8")],
            specifics=[P("192.0.2.0/24"), P("10.0.0.0/8")],
        )
        assert plan.announced == [P("10.0.0.0/8"), P("192.0.2.0/24")]

    def test_empty_plan(self):
        plan = AddressPlan()
        assert plan.announced == []


class TestProviderAllocatorFactory:
    def test_distinct_blocks_for_distinct_indices(self):
        blocks = [provider_allocator(i).block for i in range(30)]
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert disjoint(a, b), (a, b)

    def test_deterministic(self):
        assert provider_allocator(3).block == provider_allocator(3).block

    def test_overflow_providers_get_slash10(self):
        idx = 15  # beyond the 12 base /8 blocks
        assert provider_allocator(idx).block.length == 10
