"""IPv4 prefix value type.

The entire reproduction traffics in network-layer address blocks
("prefixes" in the paper's terminology): BGP updates announce or withdraw
reachability for a prefix, the default-free routing table is a set of
prefixes, and aggregation combines prefixes into supernets.  This module
provides a small, immutable, hashable :class:`Prefix` value type plus the
arithmetic the rest of the library needs (containment and subnetting).

We deliberately implement prefixes from scratch instead of wrapping
:mod:`ipaddress`: the simulator creates and compares millions of prefixes,
and a plain ``(int, int)`` tuple subclass with precomputed masks is both
faster and simpler to reason about.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

__all__ = [
    "Prefix",
    "PrefixError",
    "MAX_PREFIX_LENGTH",
]

MAX_PREFIX_LENGTH = 32

# Precomputed network masks indexed by prefix length: _MASKS[8] == 0xFF000000.
_MASKS: Tuple[int, ...] = tuple(
    (0xFFFFFFFF << (MAX_PREFIX_LENGTH - length)) & 0xFFFFFFFF
    for length in range(MAX_PREFIX_LENGTH + 1)
)


class PrefixError(ValueError):
    """Raised for malformed prefix strings or invalid prefix arithmetic."""


def _octets_to_int(text: str) -> int:
    """Parse dotted-quad ``text`` into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixError(f"expected dotted quad, got {text!r}")
    a, b, c, d = parts
    if not (a.isdigit() and b.isdigit() and c.isdigit() and d.isdigit()):
        raise PrefixError(f"non-numeric octet in {text!r}")
    a, b, c, d = int(a), int(b), int(c), int(d)
    if a > 255 or b > 255 or c > 255 or d > 255:
        raise PrefixError(f"octet out of range in {text!r}")
    return a << 24 | b << 16 | c << 8 | d


def _int_to_octets(value: int) -> str:
    """Render a 32-bit integer as a dotted quad."""
    return (
        f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}."
        f"{value & 255}"
    )


class Prefix(tuple):
    """An immutable IPv4 prefix: a network address and a mask length.

    ``Prefix`` is a ``tuple`` subclass holding ``(network, length)`` where
    ``network`` is the 32-bit network address with host bits zeroed.  Being
    a tuple makes instances hashable, totally ordered (network-major,
    shorter-prefix-first within a network), and cheap to copy — properties
    RIBs and classifiers rely on.

    Examples
    --------
    >>> p = Prefix.parse("192.42.113.0/24")
    >>> str(p)
    '192.42.113.0/24'
    >>> p in Prefix.parse("192.42.0.0/16")
    True
    """

    __slots__ = ()

    def __new__(cls, network: int, length: int) -> "Prefix":
        if not 0 <= length <= MAX_PREFIX_LENGTH:
            raise PrefixError(f"prefix length {length} out of range")
        if not 0 <= network <= 0xFFFFFFFF:
            raise PrefixError(f"network address {network:#x} out of range")
        masked = network & _MASKS[length]
        if masked != network:
            raise PrefixError(
                f"host bits set: {_int_to_octets(network)}/{length}"
            )
        return tuple.__new__(cls, (network, length))

    # -- constructors -----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"a.b.c.d/len"`` (or a bare host address) into a Prefix.

        A bare address without ``/len`` is treated as a /32 host route,
        matching common router CLI behaviour.
        """
        text = text.strip()
        addr_text, slash, len_text = text.partition("/")
        if not slash:
            length = MAX_PREFIX_LENGTH
        elif len_text.isdigit():
            length = int(len_text)
        else:
            raise PrefixError(f"bad prefix length in {text!r}")
        return cls(_octets_to_int(addr_text), length)

    # -- accessors ---------------------------------------------------------

    @property
    def network(self) -> int:
        """The 32-bit network address (host bits zero)."""
        return self[0]

    @property
    def length(self) -> int:
        """The mask length (0..32)."""
        return self[1]

    @property
    def broadcast(self) -> int:
        """The highest address covered by this prefix."""
        return self[0] | (~_MASKS[self[1]] & 0xFFFFFFFF)

    def __str__(self) -> str:
        return f"{_int_to_octets(self[0])}/{self[1]}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    # -- set relations -----------------------------------------------------

    def covers(self, other: "Prefix") -> bool:
        """True if ``other`` lies within this prefix (or equals it)."""
        if other[1] < self[1]:
            return False
        return (other[0] & _MASKS[self[1]]) == self[0]

    def covers_address(self, address: int) -> bool:
        """True if the 32-bit ``address`` lies within this prefix."""
        return (address & _MASKS[self[1]]) == self[0]

    def __contains__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self.covers(other)
        if isinstance(other, int):
            return self.covers_address(other)
        return NotImplemented  # type: ignore[return-value]

    # -- arithmetic ----------------------------------------------------------

    def subnets(self, new_length: Optional[int] = None) -> Iterator["Prefix"]:
        """Iterate the subnets of this prefix at ``new_length``.

        Default is one bit longer (the two halves).  Raises if
        ``new_length`` is shorter than this prefix's length.
        """
        if new_length is None:
            new_length = self[1] + 1
        if new_length < self[1] or new_length > MAX_PREFIX_LENGTH:
            raise PrefixError(
                f"cannot subnet {self} to /{new_length}"
            )
        step = 1 << (MAX_PREFIX_LENGTH - new_length)
        for network in range(self[0], self.broadcast + 1, step):
            yield Prefix(network, new_length)
