"""BGP protocol substrate: attributes, messages, wire codec, FSM, RIBs,
policy, and route-flap damping."""

from .attributes import AsPath, Origin, PathAttributes, WELL_KNOWN_COMMUNITIES
from .messages import (
    DEFAULT_HOLD_TIME,
    KeepAliveMessage,
    MessageType,
    NotificationCode,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from .wire import WireError, decode_message, encode_message
from .fsm import BgpStateMachine, FsmEvent, SessionState
from .session import ActionKind, PeeringSession, SessionAction
from .rib import (
    AdjRibIn,
    AdjRibOut,
    ChangeKind,
    DEFAULT_LOCAL_PREF,
    LocRib,
    RibChange,
    Route,
    best_route,
)
from .policy import (
    Action,
    DENY_ALL,
    MatchCondition,
    PERMIT_ALL,
    PolicyTerm,
    RouteMap,
)
from .damping import DampingParameters, DampingState, RouteFlapDamper
from .aspath_regex import AsPathRegex, AsPathRegexError, compile_regex

__all__ = [
    "AsPath",
    "Origin",
    "PathAttributes",
    "WELL_KNOWN_COMMUNITIES",
    "DEFAULT_HOLD_TIME",
    "KeepAliveMessage",
    "MessageType",
    "NotificationCode",
    "NotificationMessage",
    "OpenMessage",
    "UpdateMessage",
    "WireError",
    "decode_message",
    "encode_message",
    "BgpStateMachine",
    "FsmEvent",
    "SessionState",
    "ActionKind",
    "PeeringSession",
    "SessionAction",
    "AdjRibIn",
    "AdjRibOut",
    "ChangeKind",
    "DEFAULT_LOCAL_PREF",
    "LocRib",
    "RibChange",
    "Route",
    "best_route",
    "Action",
    "DENY_ALL",
    "MatchCondition",
    "PERMIT_ALL",
    "PolicyTerm",
    "RouteMap",
    "DampingParameters",
    "DampingState",
    "RouteFlapDamper",
    "AsPathRegex",
    "AsPathRegexError",
    "compile_regex",
]
