"""A BGP peering session: hold/keepalive timing over the FSM.

:class:`PeeringSession` is one endpoint's view of a session with one
peer.  It owns the :class:`~repro.bgp.fsm.BgpStateMachine`, the hold
timer deadline, and the keepalive schedule.  It is *engine-agnostic*:
every method takes the current simulated time, and instead of
scheduling callbacks it reports what is due via :meth:`poll`.  The
simulator's router calls ``poll`` whenever it processes the session.

The timing model matters for the reproduction: the paper's route-flap
storms happen because a busy router *fails to send keepalives on time*
(its CPU is busy with updates), so the peer's hold timer expires even
though the link is healthy.  The router model therefore sends
keepalives through the same CPU-work queue as updates.

Keepalives are also most of what a healthy session ever does — one
:meth:`PeeringSession.poll` that emits one and one
:meth:`PeeringSession.on_keepalive` that receives one per interval —
so those two report without allocating: the payload-free actions are
module constants, an uneventful call returns a fresh empty list, and
the FSM state is read by identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import List, Optional

from .fsm import BgpStateMachine, FsmEvent, SessionState
from .messages import (
    DEFAULT_HOLD_TIME,
    KeepAliveMessage,
    NotificationCode,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)

__all__ = ["PeeringSession", "SessionAction", "ActionKind"]


class ActionKind(Enum):
    """What the session asks its owner to do."""

    SEND_OPEN = auto()
    SEND_KEEPALIVE = auto()
    SEND_NOTIFICATION = auto()
    SESSION_UP = auto()        #: entered Established — send the table dump
    SESSION_DOWN = auto()      #: left Established — withdraw peer's routes
    RESTART = auto()           #: caller should re-initiate the connection


@dataclass(frozen=True, slots=True)
class SessionAction:
    """An instruction emitted by the session to its owning router."""

    kind: ActionKind
    message: object = None


_ESTABLISHED = SessionState.ESTABLISHED

#: The actions that carry nothing but their kind (a KEEPALIVE has no
#: fields either), built once.
_SESSION_UP = SessionAction(ActionKind.SESSION_UP)
_SESSION_DOWN = SessionAction(ActionKind.SESSION_DOWN)
_RESTART = SessionAction(ActionKind.RESTART)
_SEND_KEEPALIVE = SessionAction(ActionKind.SEND_KEEPALIVE, KeepAliveMessage())


class PeeringSession:
    """One endpoint of a BGP session.

    Parameters
    ----------
    local_asn, peer_asn:
        AS numbers of the two ends.
    hold_time:
        Negotiated hold time; keepalives go out every ``hold_time / 3``.
    local_id:
        32-bit identifier used in our OPEN.
    """

    __slots__ = (
        "local_asn",
        "peer_asn",
        "hold_time",
        "local_id",
        "fsm",
        "keepalive_interval",
        "_hold_deadline",
        "_next_keepalive",
        "sent_updates",
        "received_updates",
        "sent_keepalives",
        "received_keepalives",
    )

    def __init__(
        self,
        local_asn: int,
        peer_asn: int,
        hold_time: float = DEFAULT_HOLD_TIME,
        local_id: int = 0,
    ) -> None:
        self.local_asn = local_asn
        self.peer_asn = peer_asn
        self.hold_time = hold_time
        self.local_id = local_id
        self.fsm = BgpStateMachine()
        self.keepalive_interval = hold_time / 3.0
        self._hold_deadline: Optional[float] = None
        self._next_keepalive: Optional[float] = None
        #: message counters (per direction), used by bench/diagnostics
        self.sent_updates = 0
        self.received_updates = 0
        self.sent_keepalives = 0
        self.received_keepalives = 0

    # -- lifecycle --------------------------------------------------------

    def start(self, now: float) -> List[SessionAction]:
        """Begin session establishment (ManualStart + TCP up)."""
        self.fsm.handle(FsmEvent.MANUAL_START, now)
        self.fsm.handle(FsmEvent.TCP_ESTABLISHED, now)
        self._hold_deadline = now + self.hold_time
        return [
            SessionAction(
                ActionKind.SEND_OPEN,
                OpenMessage(
                    asn=self.local_asn,
                    hold_time=self.hold_time,
                    bgp_identifier=self.local_id,
                ),
            )
        ]

    def stop(self, now: float) -> List[SessionAction]:
        """Administratively stop the session (Cease)."""
        return self._tear_down(
            FsmEvent.MANUAL_STOP, now, NotificationCode.CEASE
        )

    def _tear_down(
        self,
        event: FsmEvent,
        now: float,
        notify: Optional[NotificationCode] = None,
    ) -> List[SessionAction]:
        """Feed the FSM a session-ending ``event`` and disarm both
        timers; the actions are a NOTIFICATION to the peer (when
        ``notify`` names its code), then SESSION_DOWN if the session
        had been up."""
        fsm = self.fsm
        was_established = fsm.state is _ESTABLISHED
        fsm.handle(event, now)
        self._hold_deadline = None
        self._next_keepalive = None
        actions: List[SessionAction] = []
        if notify is not None:
            actions.append(
                SessionAction(
                    ActionKind.SEND_NOTIFICATION, NotificationMessage(notify)
                )
            )
        if was_established:
            actions.append(_SESSION_DOWN)
        return actions

    # -- inbound messages ---------------------------------------------------

    def on_open(self, now: float, msg: OpenMessage) -> List[SessionAction]:
        """Handle a received OPEN: negotiate hold time, confirm."""
        self.fsm.handle(FsmEvent.OPEN_RECEIVED, now)
        # RFC 4271: the session uses the smaller of the two hold times.
        self.hold_time = min(self.hold_time, msg.hold_time)
        self.keepalive_interval = self.hold_time / 3.0
        self._hold_deadline = now + self.hold_time
        return [_SEND_KEEPALIVE]

    def on_keepalive(self, now: float) -> List[SessionAction]:
        """Handle a received KEEPALIVE: refresh hold timer, maybe go up."""
        fsm = self.fsm
        before = fsm.state
        after = fsm.handle(FsmEvent.KEEPALIVE_RECEIVED, now)
        self.received_keepalives += 1
        self._hold_deadline = now + self.hold_time
        if after is _ESTABLISHED and before is SessionState.OPEN_CONFIRM:
            self._next_keepalive = now + self.keepalive_interval
            return [_SESSION_UP]
        return []

    def on_update(self, now: float, msg: UpdateMessage) -> List[SessionAction]:
        """Handle a received UPDATE: refreshes the hold timer too."""
        self.fsm.handle(FsmEvent.UPDATE_RECEIVED, now)
        self.received_updates += 1
        self._hold_deadline = now + self.hold_time
        return []

    def on_transport_failure(self, now: float) -> List[SessionAction]:
        """The underlying transport (link) failed: the session is gone.

        No RESTART is requested — reconnection waits for the owner to
        observe the link recover.
        """
        return self._tear_down(FsmEvent.TCP_FAILED, now)

    def on_notification(
        self, now: float, msg: NotificationMessage
    ) -> List[SessionAction]:
        """Handle a received NOTIFICATION: the session is dead."""
        actions = self._tear_down(FsmEvent.NOTIFICATION_RECEIVED, now)
        actions.append(_RESTART)
        return actions

    # -- timer polling -----------------------------------------------------------

    def poll(self, now: float) -> List[SessionAction]:
        """Check timers; returns any due actions.

        - Hold timer expiry tears the session down (and asks for a
          restart — the re-peering that amplifies flap storms).
        - Keepalive timer emits the next keepalive.  The keepalive is
          *requested* here; if the owning router's CPU is saturated it
          may transmit late — which is precisely how storms ignite.
        """
        state = self.fsm.state
        hold = self._hold_deadline
        if hold is not None and now >= hold and state is not SessionState.IDLE:
            actions = self._tear_down(
                FsmEvent.HOLD_TIMER_EXPIRED,
                now,
                NotificationCode.HOLD_TIMER_EXPIRED,
            )
            actions.append(_RESTART)
            return actions
        due = self._next_keepalive
        if state is _ESTABLISHED and due is not None and now >= due:
            self._next_keepalive = now + self.keepalive_interval
            self.sent_keepalives += 1
            return [_SEND_KEEPALIVE]
        return []

    # -- introspection ---------------------------------------------------------

    @property
    def is_established(self) -> bool:
        return self.fsm.state is _ESTABLISHED

    def next_deadline(self) -> Optional[float]:
        """The soonest time :meth:`poll` could have something to do."""
        hold = self._hold_deadline
        due = self._next_keepalive
        if due is None:
            return hold
        if hold is None or due < hold:
            return due
        return hold
