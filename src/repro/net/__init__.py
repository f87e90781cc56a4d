"""IP addressing substrate: prefixes and address allocation."""

from .prefix import MAX_PREFIX_LENGTH, Prefix, PrefixError
from .addressing import (
    AddressExhausted,
    AddressPlan,
    ProviderBlockAllocator,
    SwampAllocator,
    provider_allocator,
)

__all__ = [
    "MAX_PREFIX_LENGTH",
    "Prefix",
    "PrefixError",
    "AddressExhausted",
    "AddressPlan",
    "ProviderBlockAllocator",
    "SwampAllocator",
    "provider_allocator",
]
