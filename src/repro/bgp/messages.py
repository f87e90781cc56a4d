"""BGP message types (RFC 4271 §4).

Four message types flow over a BGP session: OPEN (capabilities/identity
exchange at session start), UPDATE (route announcements and withdrawals
— the messages the paper measures), KEEPALIVE (liveness), and
NOTIFICATION (fatal error + session teardown).

These are plain immutable dataclasses; the wire codec lives in
:mod:`repro.bgp.wire` and the session logic in :mod:`repro.bgp.session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Tuple

from ..net.prefix import Prefix
from .attributes import PathAttributes

__all__ = [
    "MessageType",
    "NotificationCode",
    "OpenMessage",
    "UpdateMessage",
    "KeepAliveMessage",
    "NotificationMessage",
    "DEFAULT_HOLD_TIME",
]

#: Default hold time in seconds; keepalives are sent at a third of this,
#: the conventional operational setting the paper's flap-storm dynamics
#: hinge on (delayed keepalives breach the hold timer).
DEFAULT_HOLD_TIME = 90.0


class MessageType(IntEnum):
    """Wire-format message type codes."""

    OPEN = 1
    UPDATE = 2
    NOTIFICATION = 3
    KEEPALIVE = 4


class NotificationCode(IntEnum):
    """Top-level NOTIFICATION error codes (RFC 4271 §4.5)."""

    MESSAGE_HEADER_ERROR = 1
    OPEN_MESSAGE_ERROR = 2
    UPDATE_MESSAGE_ERROR = 3
    HOLD_TIMER_EXPIRED = 4
    FSM_ERROR = 5
    CEASE = 6


@dataclass(frozen=True)
class OpenMessage:
    """OPEN: announces the speaker's AS, hold time, and identifier."""

    asn: int
    hold_time: float = DEFAULT_HOLD_TIME
    bgp_identifier: int = 0
    version: int = 4

    @property
    def type(self) -> MessageType:
        return MessageType.OPEN


@dataclass(frozen=True)
class UpdateMessage:
    """UPDATE: zero or more withdrawals plus zero or more announcements.

    A single UPDATE carries one attribute set shared by every announced
    prefix (``announced``) and an independent list of withdrawn prefixes
    — exactly the RFC 4271 structure.  The paper's per-prefix counting
    flattens each UPDATE into ``len(withdrawn)`` withdrawal events and
    ``len(announced)`` announcement events.
    """

    withdrawn: Tuple[Prefix, ...] = ()
    announced: Tuple[Prefix, ...] = ()
    attributes: PathAttributes = field(default_factory=PathAttributes)

    def __post_init__(self) -> None:
        object.__setattr__(self, "withdrawn", tuple(self.withdrawn))
        object.__setattr__(self, "announced", tuple(self.announced))

    @property
    def type(self) -> MessageType:
        return MessageType.UPDATE

    @property
    def prefix_update_count(self) -> int:
        """Total per-prefix events this UPDATE contributes (paper's unit)."""
        return len(self.withdrawn) + len(self.announced)


@dataclass(frozen=True)
class KeepAliveMessage:
    """KEEPALIVE: resets the peer's hold timer; carries no data."""

    @property
    def type(self) -> MessageType:
        return MessageType.KEEPALIVE


@dataclass(frozen=True)
class NotificationMessage:
    """NOTIFICATION: reports a fatal error; the session closes after it."""

    code: NotificationCode
    subcode: int = 0
    data: bytes = b""

    @property
    def type(self) -> MessageType:
        return MessageType.NOTIFICATION
