"""The update record: the unit of everything the paper measures.

The Routing Arbiter logs, decoded, reduce to a stream of timestamped
per-prefix events: *peer X announced prefix P with attributes A* or
*peer X withdrew prefix P*.  Every analysis in the paper — the
classification taxonomy, the density plots, the spectra, the
inter-arrival histograms, the Prefix+AS distributions — consumes exactly
this stream.  :class:`UpdateRecord` is that unit, shared by both data
tiers (the event simulator and the statistical generator).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple

from ..bgp.attributes import PathAttributes
from ..net.prefix import Prefix

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cost
    from ..bgp.messages import UpdateMessage

__all__ = [
    "MemoryLog",
    "PrefixAs",
    "SessionEvent",
    "UpdateKind",
    "UpdateRecord",
    "flatten_update",
]


class UpdateKind(IntEnum):
    """Announcement or withdrawal (the two forms of BGP routing info)."""

    ANNOUNCE = 1
    WITHDRAW = 2


#: The paper's "Prefix+AS" aggregation unit: "a set of routes that an AS
#: announces for a given destination... more specific than a prefix, and
#: more general than a route."
PrefixAs = Tuple[Prefix, int]


@dataclass(frozen=True, slots=True)
class UpdateRecord:
    """One per-prefix routing event observed at a collection point.

    Attributes
    ----------
    time:
        Seconds since the simulation epoch (a simulated calendar maps
        this to weekday/hour for the temporal analyses).
    peer_id:
        The 32-bit address of the peer router the event came from.
    peer_asn:
        The autonomous system of that peer — the "AS" in Prefix+AS.
    prefix:
        The destination block the event concerns.
    kind:
        ANNOUNCE or WITHDRAW.
    attributes:
        The announcement's path attributes; None for withdrawals.
    """

    time: float
    peer_id: int
    peer_asn: int
    prefix: Prefix
    kind: UpdateKind
    attributes: Optional[PathAttributes] = None

    def __post_init__(self) -> None:
        if self.kind is UpdateKind.ANNOUNCE and self.attributes is None:
            raise ValueError("announcements must carry attributes")
        if self.kind is UpdateKind.WITHDRAW and self.attributes is not None:
            raise ValueError("withdrawals carry no attributes")

    @property
    def is_announce(self) -> bool:
        return self.kind is UpdateKind.ANNOUNCE

    @property
    def is_withdraw(self) -> bool:
        return self.kind is UpdateKind.WITHDRAW


def update_rows(
    message: UpdateMessage,
) -> Tuple[Tuple[Prefix, UpdateKind, Optional[PathAttributes]], ...]:
    """One ``(prefix, kind, attributes)`` row per prefix of an UPDATE,
    withdrawals first, then announcements.

    This is the counting convention behind every number in the paper: an
    UPDATE with three announced NLRI and two withdrawals contributes five
    "updates".
    """
    attributes = message.attributes
    return tuple(
        (prefix, UpdateKind.WITHDRAW, None) for prefix in message.withdrawn
    ) + tuple(
        (prefix, UpdateKind.ANNOUNCE, attributes)
        for prefix in message.announced
    )


def flatten_update(
    time: float,
    peer_id: int,
    peer_asn: int,
    message: UpdateMessage,
) -> List[UpdateRecord]:
    """Explode one BGP UPDATE into per-prefix records, one per
    :func:`update_rows` row."""
    return [
        UpdateRecord(time, peer_id, peer_asn, prefix, kind, attributes)
        for prefix, kind, attributes in update_rows(message)
    ]


class MemoryLog:
    """An in-memory update log (list-backed): the sink the simulator's
    route servers write by default.  The on-disk archive sinks are in
    :mod:`repro.collector.log`."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: List[UpdateRecord] = []

    def append(self, record: UpdateRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[UpdateRecord]) -> None:
        self.records.extend(records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def sorted_by_time(self) -> List[UpdateRecord]:
        return sorted(self.records, key=lambda r: r.time)

    def clear(self) -> None:
        self.records.clear()


@dataclass(frozen=True, slots=True)
class SessionEvent:
    """One peering-session FSM transition observed at a collector.

    The Routing Arbiter logged these alongside updates; they are the
    raw material of route-flap-storm forensics (a storm is a burst of
    Established→Idle transitions across many peers).
    :mod:`repro.collector.mrt` archives them as RFC 6396
    BGP4MP_ET STATE_CHANGE records.
    """

    time: float
    peer_id: int
    peer_asn: int
    old_state: str
    new_state: str

    @property
    def is_session_loss(self) -> bool:
        return self.old_state == "ESTABLISHED" and self.new_state != "ESTABLISHED"
