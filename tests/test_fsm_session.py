"""Unit tests for the BGP FSM and peering session timing."""

import pytest

from repro.bgp.fsm import (
    BgpStateMachine,
    FsmEvent,
    SessionState,
    Transition,
)
from repro.bgp.fsm import FsmError
from repro.bgp.messages import (
    KeepAliveMessage,
    NotificationCode,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from repro.bgp.session import ActionKind, PeeringSession, SessionAction


class TestFsm:
    def test_happy_path_to_established(self):
        fsm = BgpStateMachine()
        fsm.handle(FsmEvent.MANUAL_START)
        fsm.handle(FsmEvent.TCP_ESTABLISHED)
        fsm.handle(FsmEvent.OPEN_RECEIVED)
        fsm.handle(FsmEvent.KEEPALIVE_RECEIVED)
        assert fsm.state is SessionState.ESTABLISHED
        assert fsm.established_count == 1

    def test_hold_expiry_drops_to_idle(self):
        fsm = BgpStateMachine()
        for ev in (
            FsmEvent.MANUAL_START,
            FsmEvent.TCP_ESTABLISHED,
            FsmEvent.OPEN_RECEIVED,
            FsmEvent.KEEPALIVE_RECEIVED,
        ):
            fsm.handle(ev)
        fsm.handle(FsmEvent.HOLD_TIMER_EXPIRED)
        assert fsm.state is SessionState.IDLE
        assert fsm.drop_count == 1

    def test_update_before_established_is_fsm_error(self):
        fsm = BgpStateMachine()
        fsm.handle(FsmEvent.MANUAL_START)
        with pytest.raises(FsmError):
            fsm.handle(FsmEvent.UPDATE_RECEIVED)

    def test_tcp_failure_during_connect(self):
        fsm = BgpStateMachine()
        fsm.handle(FsmEvent.MANUAL_START)
        fsm.handle(FsmEvent.TCP_FAILED)
        assert fsm.state is SessionState.IDLE

    def test_history_records_transitions(self):
        fsm = BgpStateMachine()
        fsm.handle(FsmEvent.MANUAL_START, now=1.0)
        fsm.handle(FsmEvent.TCP_ESTABLISHED, now=2.0)
        assert [t.after for t in fsm.history] == [
            SessionState.CONNECT,
            SessionState.OPEN_SENT,
        ]
        assert fsm.history[0].time == 1.0

    def test_updates_keep_established(self):
        fsm = BgpStateMachine()
        for ev in (
            FsmEvent.MANUAL_START,
            FsmEvent.TCP_ESTABLISHED,
            FsmEvent.OPEN_RECEIVED,
            FsmEvent.KEEPALIVE_RECEIVED,
        ):
            fsm.handle(ev)
        before = len(fsm.history)
        fsm.handle(FsmEvent.UPDATE_RECEIVED)
        assert fsm.state is SessionState.ESTABLISHED
        assert len(fsm.history) == before  # no transition recorded


#: The whole transition function, written out by hand from the module
#: docstring's simplification of RFC 4271 §8 (events down, states
#: across): the next state, ``-`` where the event is ignored and ``!``
#: where it is a protocol violation.
FSM_SPEC = """
.                      IDLE     CONNECT    OPEN_SENT     OPEN_CONFIRM  ESTABLISHED
MANUAL_START           CONNECT  -          -             -             -
MANUAL_STOP            -        IDLE       IDLE          IDLE          IDLE
TCP_ESTABLISHED        -        OPEN_SENT  -             -             -
TCP_FAILED             -        IDLE       IDLE          IDLE          IDLE
OPEN_RECEIVED          !        -          OPEN_CONFIRM  -             -
KEEPALIVE_RECEIVED     !        -          -             ESTABLISHED   -
UPDATE_RECEIVED        !        !          !             !             -
HOLD_TIMER_EXPIRED     -        IDLE       IDLE          IDLE          IDLE
NOTIFICATION_RECEIVED  -        IDLE       IDLE          IDLE          IDLE
"""


def _spec_cells():
    header, *rows = [line.split() for line in FSM_SPEC.strip().splitlines()]
    states = header[1:]
    return [
        (state, row[0], cell)
        for row in rows
        for state, cell in zip(states, row[1:])
    ]


class TestFsmTable:
    def test_spec_covers_every_state_and_event(self):
        cells = _spec_cells()
        assert len(cells) == len(SessionState) * len(FsmEvent) == 45
        assert {c[0] for c in cells} == {s.name for s in SessionState}
        assert {c[1] for c in cells} == {e.name for e in FsmEvent}

    @pytest.mark.parametrize("state,event,expected", _spec_cells())
    def test_cell(self, state, event, expected):
        fsm = BgpStateMachine()
        fsm.state = before = SessionState[state]
        if expected == "!":
            with pytest.raises(FsmError, match=f"{event} illegal in {state}"):
                fsm.handle(FsmEvent[event], now=7.0)
            assert fsm.state is before
            assert fsm.history == []
            return
        after = before if expected == "-" else SessionState[expected]
        assert fsm.handle(FsmEvent[event], now=7.0) is after
        assert fsm.state is after
        if after is before:
            assert fsm.history == []
        else:
            (transition,) = fsm.history
            assert (
                transition.time,
                transition.event,
                transition.before,
                transition.after,
            ) == (7.0, FsmEvent[event], before, after)
        went_up = after is SessionState.ESTABLISHED and after is not before
        went_down = before is SessionState.ESTABLISHED and after is not before
        assert fsm.established_count == int(went_up)
        assert fsm.drop_count == int(went_down)

    def test_scripted_life_cycle_bookkeeping(self):
        """Up, steady traffic, hold expiry, up again, peer's
        NOTIFICATION, a refused connection: counters and history."""
        E, S = FsmEvent, SessionState
        script = [
            (1.0, E.MANUAL_START), (1.0, E.TCP_ESTABLISHED),
            (1.5, E.OPEN_RECEIVED), (2.0, E.KEEPALIVE_RECEIVED),
            (32.0, E.KEEPALIVE_RECEIVED), (40.0, E.UPDATE_RECEIVED),
            (130.0, E.HOLD_TIMER_EXPIRED),
            (135.0, E.MANUAL_START), (135.0, E.TCP_ESTABLISHED),
            (135.5, E.OPEN_RECEIVED), (136.0, E.KEEPALIVE_RECEIVED),
            (200.0, E.NOTIFICATION_RECEIVED),
            (205.0, E.MANUAL_START), (205.0, E.TCP_FAILED),
            (210.0, E.MANUAL_STOP),
        ]
        fsm = BgpStateMachine()
        for now, event in script:
            fsm.handle(event, now)
        assert fsm.state is S.IDLE
        assert fsm.established_count == 2
        assert fsm.drop_count == 2
        assert [(t.time, t.event, t.before, t.after) for t in fsm.history] == [
            (1.0, E.MANUAL_START, S.IDLE, S.CONNECT),
            (1.0, E.TCP_ESTABLISHED, S.CONNECT, S.OPEN_SENT),
            (1.5, E.OPEN_RECEIVED, S.OPEN_SENT, S.OPEN_CONFIRM),
            (2.0, E.KEEPALIVE_RECEIVED, S.OPEN_CONFIRM, S.ESTABLISHED),
            (130.0, E.HOLD_TIMER_EXPIRED, S.ESTABLISHED, S.IDLE),
            (135.0, E.MANUAL_START, S.IDLE, S.CONNECT),
            (135.0, E.TCP_ESTABLISHED, S.CONNECT, S.OPEN_SENT),
            (135.5, E.OPEN_RECEIVED, S.OPEN_SENT, S.OPEN_CONFIRM),
            (136.0, E.KEEPALIVE_RECEIVED, S.OPEN_CONFIRM, S.ESTABLISHED),
            (200.0, E.NOTIFICATION_RECEIVED, S.ESTABLISHED, S.IDLE),
            (205.0, E.MANUAL_START, S.IDLE, S.CONNECT),
            (205.0, E.TCP_FAILED, S.CONNECT, S.IDLE),
        ]

    def test_enum_surface_is_unchanged(self):
        """The names and reprs that reach ``FsmError`` messages and the
        storm-forensics example."""
        assert [s.name for s in SessionState] == [
            "IDLE", "CONNECT", "OPEN_SENT", "OPEN_CONFIRM", "ESTABLISHED",
        ]
        assert str(SessionState.IDLE) == "SessionState.IDLE"
        assert repr(FsmEvent.MANUAL_START) == "<FsmEvent.MANUAL_START: 1>"
        assert repr(FsmEvent.NOTIFICATION_RECEIVED) == (
            "<FsmEvent.NOTIFICATION_RECEIVED: 9>"
        )


def establish(session, now=0.0):
    """Drive a session to Established; returns actions from the last step."""
    session.start(now)
    session.on_open(now, OpenMessage(asn=session.peer_asn, hold_time=90.0))
    return session.on_keepalive(now)


class TestPeeringSession:
    def test_establishment_emits_session_up(self):
        s = PeeringSession(local_asn=701, peer_asn=1239)
        actions = establish(s)
        assert any(a.kind is ActionKind.SESSION_UP for a in actions)
        assert s.is_established

    def test_start_sends_open(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        actions = s.start(0.0)
        assert actions[0].kind is ActionKind.SEND_OPEN
        assert actions[0].message.asn == 701

    def test_hold_time_negotiated_to_minimum(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        s.start(0.0)
        s.on_open(0.0, OpenMessage(asn=1239, hold_time=30.0))
        assert s.hold_time == 30.0
        assert s.keepalive_interval == pytest.approx(10.0)

    def test_keepalive_due_every_third_of_hold(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        establish(s, now=0.0)
        assert s.poll(29.0) == []
        actions = s.poll(30.0)
        assert [a.kind for a in actions] == [ActionKind.SEND_KEEPALIVE]
        # Next one due 30s later.
        assert s.poll(31.0) == []
        assert s.poll(60.0)[0].kind is ActionKind.SEND_KEEPALIVE

    def test_hold_timer_expiry_tears_down_and_restarts(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        establish(s, now=0.0)
        actions = s.poll(90.0)
        kinds = [a.kind for a in actions]
        assert ActionKind.SEND_NOTIFICATION in kinds
        assert ActionKind.SESSION_DOWN in kinds
        assert ActionKind.RESTART in kinds
        assert not s.is_established

    def test_received_traffic_refreshes_hold(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        establish(s, now=0.0)
        s.on_update(60.0, UpdateMessage())
        # Hold would have expired at t=90 without the update at t=60.
        down = [
            a for a in s.poll(95.0) if a.kind is ActionKind.SESSION_DOWN
        ]
        assert not down
        assert s.is_established

    def test_notification_drops_session(self):
        s = PeeringSession(local_asn=701, peer_asn=1239)
        establish(s, now=0.0)
        actions = s.on_notification(
            1.0, NotificationMessage(NotificationCode.CEASE)
        )
        kinds = [a.kind for a in actions]
        assert ActionKind.SESSION_DOWN in kinds
        assert ActionKind.RESTART in kinds

    def test_stop_sends_cease(self):
        s = PeeringSession(local_asn=701, peer_asn=1239)
        establish(s, now=0.0)
        actions = s.stop(5.0)
        assert actions[0].kind is ActionKind.SEND_NOTIFICATION
        assert actions[0].message.code is NotificationCode.CEASE
        assert any(a.kind is ActionKind.SESSION_DOWN for a in actions)

    def test_next_deadline_reports_sooner_timer(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        establish(s, now=0.0)
        # Keepalive (t=30) is sooner than hold (t=90).
        assert s.next_deadline() == pytest.approx(30.0)

    def test_poll_idle_session_is_noop(self):
        s = PeeringSession(local_asn=701, peer_asn=1239)
        assert s.poll(1000.0) == []

    def test_teardown_actions_in_order(self):
        """Every way a session ends, up and not yet up: the exact
        action sequence the router runs."""
        K = ActionKind

        def kinds(actions):
            return [a.kind for a in actions]

        cease = NotificationMessage(NotificationCode.CEASE)
        endings = {
            "hold": lambda s: s.poll(500.0),
            "stop": lambda s: s.stop(5.0),
            "notification": lambda s: s.on_notification(5.0, cease),
            "transport": lambda s: s.on_transport_failure(5.0),
        }
        expected_up = {
            "hold": [K.SEND_NOTIFICATION, K.SESSION_DOWN, K.RESTART],
            "stop": [K.SEND_NOTIFICATION, K.SESSION_DOWN],
            "notification": [K.SESSION_DOWN, K.RESTART],
            "transport": [K.SESSION_DOWN],
        }
        for name, end in endings.items():
            up = PeeringSession(local_asn=701, peer_asn=1239)
            establish(up)
            assert kinds(end(up)) == expected_up[name], name
            assert up.fsm.state is SessionState.IDLE
            assert up._hold_deadline is None
            assert up._next_keepalive is None
            assert up.next_deadline() is None
            opening = PeeringSession(local_asn=701, peer_asn=1239)
            opening.start(0.0)
            assert kinds(end(opening)) == [
                k for k in expected_up[name] if k is not K.SESSION_DOWN
            ], name
            assert opening.fsm.state is SessionState.IDLE
        hold = PeeringSession(local_asn=701, peer_asn=1239)
        establish(hold)
        notification = hold.poll(90.0)[0].message
        assert notification.code is NotificationCode.HOLD_TIMER_EXPIRED

    def test_next_deadline_is_the_sooner_armed_timer(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        assert s.next_deadline() is None
        s.start(10.0)
        assert s.next_deadline() == 100.0          # hold only
        establish_at = 20.0
        s.on_open(establish_at, OpenMessage(asn=1239, hold_time=90.0))
        s.on_keepalive(establish_at)
        assert s.next_deadline() == 50.0           # keepalive sooner
        s._hold_deadline = 40.0
        assert s.next_deadline() == 40.0           # hold sooner
        s._hold_deadline = None
        assert s.next_deadline() == 50.0           # keepalive only

    def test_returned_lists_belong_to_the_caller(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        establish(s, now=0.0)
        s.poll(1.0).append("scribble")
        s.on_keepalive(2.0).append("scribble")
        s.on_update(3.0, UpdateMessage()).append("scribble")
        assert s.poll(4.0) == []
        assert s.on_keepalive(5.0) == []
        assert s.on_update(6.0, UpdateMessage()) == []
        s.poll(30.0).append("scribble")
        assert [a.kind for a in s.poll(60.0)] == [ActionKind.SEND_KEEPALIVE]

    def test_keepalive_actions_carry_a_keepalive(self):
        s = PeeringSession(local_asn=701, peer_asn=1239, hold_time=90.0)
        s.start(0.0)
        (confirm,) = s.on_open(0.0, OpenMessage(asn=1239, hold_time=90.0))
        s.on_keepalive(0.0)
        (beat,) = s.poll(30.0)
        for action in (confirm, beat):
            assert action.kind is ActionKind.SEND_KEEPALIVE
            assert action.message == KeepAliveMessage()

    def test_session_layer_instances_have_no_dict(self):
        session = PeeringSession(local_asn=701, peer_asn=1239)
        for instance in (
            session,
            session.fsm,
            Transition(0.0, FsmEvent.MANUAL_START, SessionState.IDLE,
                       SessionState.CONNECT),
            SessionAction(ActionKind.RESTART),
        ):
            assert not hasattr(instance, "__dict__"), type(instance)
        assert [f for f in SessionAction.__dataclass_fields__] == [
            "kind", "message",
        ]
