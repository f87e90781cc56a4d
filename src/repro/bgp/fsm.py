"""The BGP session finite-state machine (RFC 4271 §8, simplified).

The flap-storm dynamics the paper describes are FSM dynamics: an
overloaded router's keepalives are delayed, its peers' hold timers
expire, sessions fall out of Established, routes are withdrawn, and the
subsequent re-establishment triggers full table dumps.  This module
models the state machine those transitions run through.

States: Idle → Connect → OpenSent → OpenConfirm → Established, with
any error collapsing back to Idle.  (Active is folded into Connect; the
TCP-level distinction between them does not affect any behaviour the
reproduction measures.)

The transition function is total and small (5 states x 9 events), so it
is written out once as a dense table, ``_NEXT``, and
:meth:`BgpStateMachine.handle` is two index operations.  The table is
indexed by member ordinal rather than keyed by member because hashing
an ``Enum`` member is a Python-level ``__hash__`` call, and a simulated
day feeds the machine one KEEPALIVE_RECEIVED per two events.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import List

__all__ = ["SessionState", "FsmEvent", "BgpStateMachine", "Transition"]


class SessionState(Enum):
    """BGP FSM states."""

    IDLE = auto()
    CONNECT = auto()
    OPEN_SENT = auto()
    OPEN_CONFIRM = auto()
    ESTABLISHED = auto()


class FsmEvent(Enum):
    """Inputs to the FSM (RFC 4271 event numbers noted where standard)."""

    MANUAL_START = auto()          # event 1
    MANUAL_STOP = auto()           # event 2
    TCP_ESTABLISHED = auto()       # event 16
    TCP_FAILED = auto()            # event 18
    OPEN_RECEIVED = auto()         # event 19
    KEEPALIVE_RECEIVED = auto()    # event 26
    UPDATE_RECEIVED = auto()       # event 27
    HOLD_TIMER_EXPIRED = auto()    # event 10
    NOTIFICATION_RECEIVED = auto()  # event 24/25


@dataclass(frozen=True, slots=True)
class Transition:
    """A record of one state change (for tests and storm diagnostics)."""

    time: float
    event: FsmEvent
    before: SessionState
    after: SessionState


class FsmError(RuntimeError):
    """Raised when an event is illegal in the current state."""


_IDLE, _CONNECT, _OPEN_SENT, _OPEN_CONFIRM, _ESTABLISHED = SessionState

#: The whole transition function, one row per state in
#: :class:`SessionState` order and one column per event in
#: :class:`FsmEvent` order: the next state (the row's own state where
#: the event is ignored), or ``None`` for a protocol violation.
#: ``auto()`` numbers members from 1 in definition order, so a member's
#: ``_value_ - 1`` is its row or column.
#:
#: Columns: MANUAL_START, MANUAL_STOP, TCP_ESTABLISHED, TCP_FAILED,
#: OPEN_RECEIVED, KEEPALIVE_RECEIVED, UPDATE_RECEIVED,
#: HOLD_TIMER_EXPIRED, NOTIFICATION_RECEIVED.
_NEXT = (
    # IDLE
    (_CONNECT, _IDLE, _IDLE, _IDLE, None, None, None, _IDLE, _IDLE),
    # CONNECT
    (_CONNECT, _IDLE, _OPEN_SENT, _IDLE, _CONNECT, _CONNECT, None,
     _IDLE, _IDLE),
    # OPEN_SENT
    (_OPEN_SENT, _IDLE, _OPEN_SENT, _IDLE, _OPEN_CONFIRM, _OPEN_SENT, None,
     _IDLE, _IDLE),
    # OPEN_CONFIRM
    (_OPEN_CONFIRM, _IDLE, _OPEN_CONFIRM, _IDLE, _OPEN_CONFIRM, _ESTABLISHED,
     None, _IDLE, _IDLE),
    # ESTABLISHED
    (_ESTABLISHED, _IDLE, _ESTABLISHED, _IDLE, _ESTABLISHED, _ESTABLISHED,
     _ESTABLISHED, _IDLE, _IDLE),
)


class BgpStateMachine:
    """One side of a BGP peering session.

    The machine is deliberately pure: :meth:`handle` consumes an event
    and returns the new state, recording a :class:`Transition`.  All
    timer scheduling lives with the caller (the simulator's router),
    which feeds HOLD_TIMER_EXPIRED / TCP_* events in.
    """

    __slots__ = ("state", "history", "established_count", "drop_count")

    def __init__(self) -> None:
        self.state = SessionState.IDLE
        self.history: List[Transition] = []
        self.established_count = 0
        self.drop_count = 0

    def handle(self, event: FsmEvent, now: float = 0.0) -> SessionState:
        """Apply ``event``; returns the (possibly unchanged) new state.

        Raises :class:`FsmError` for protocol violations (e.g. an UPDATE
        before the session is Established).
        """
        before = self.state
        after = _NEXT[before._value_ - 1][event._value_ - 1]
        if after is None:
            raise FsmError(f"{event.name} illegal in {before.name}")
        if after is not before:
            self.history.append(Transition(now, event, before, after))
            if after is _ESTABLISHED:
                self.established_count += 1
            elif before is _ESTABLISHED:
                self.drop_count += 1
        self.state = after
        return after

    @property
    def is_established(self) -> bool:
        return self.state is SessionState.ESTABLISHED

    def reset(self) -> None:
        """Return to IDLE without recording a transition (test helper)."""
        self.state = SessionState.IDLE
