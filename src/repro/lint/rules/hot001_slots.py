"""HOT001: hot-path classes must be ``__slots__``-packed.

``repro.collector.record`` and ``repro.core`` hold the per-record
types and classifier state the columnar pipeline instantiates millions
of times per simulated day.  A ``__dict__`` per instance costs ~100
bytes and a pointer chase on every attribute access; PR 1's profile
showed slotting these types was worth double-digit percent on the
materialization path.  The discipline also covers ``repro.sim`` (event
handles, timers, links, routers — the discrete-event hot path drains
millions of events per run), the RIB data model
(``repro.bgp.rib`` / ``repro.bgp.attributes``, where a table holds one
``Route``/``PathAttributes`` per (peer, prefix)) and the session layer
(``repro.bgp.session`` / ``repro.bgp.fsm``: a simulated day is 94 %
keepalive traffic, so a ``PeeringSession`` and its ``BgpStateMachine``
are entered once per two events).  The out-of-core
campaign tier joins the list: ``repro.core.spill`` (covered via the
``repro/core/`` prefix) plus ``repro.campaign.fold`` and
``repro.campaign.handoff`` sit on the per-day spill/fold path and hold
per-shard accumulator state.  The parallel simulator
(``repro.sim.partition`` / ``repro.sim.parallel`` — cross-exchange
messages, partitions, shard ports) is covered via the ``repro/sim/``
prefix, and so is the trace generator (``repro/workloads/`` — pair
state, day plans, and the emission sink the vectorized
materialization tier drives once per pair per day).  The rule keeps
the discipline from
silently eroding: every class in those modules
declares ``__slots__`` directly or via ``@dataclass(slots=True)``.
Enums, exceptions, and the other interpreter-managed layouts are
exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Finding, ModuleContext, Rule

#: Module paths the discipline applies to (suffix match on the
#: posix-style lint-relative path).
TARGET_SUFFIXES = (
    "collector/record.py",
    "bgp/rib.py",
    "bgp/attributes.py",
    "bgp/session.py",
    "bgp/fsm.py",
    "campaign/fold.py",
    "campaign/handoff.py",
)
TARGET_DIRS = ("repro/core/", "repro/sim/", "repro/workloads/")

_EXEMPT_BASES = frozenset(
    {
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "Exception",
        "BaseException",
        "NamedTuple",
        "TypedDict",
        "Protocol",
        "ABC",
        "type",
    }
)

_EXEMPT_SUFFIXES = ("Error", "Exception", "Warning")


def _base_name(base: ast.AST) -> str:
    """The trailing identifier of a base-class expression
    (``enum.IntEnum`` -> ``IntEnum``, ``Generic[T]`` -> ``Generic``)."""
    if isinstance(base, ast.Subscript):
        return _base_name(base.value)
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Name):
        return base.id
    return ""


def _has_slots_decorator(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", ""
        )
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _declares_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


class SlotsRule(Rule):
    id = "HOT001"
    title = "hot-path class without __slots__"
    rationale = (
        "Per-record, classifier-state, simulator, RIB and session "
        "classes in repro.collector.record / repro.core / repro.sim / "
        "repro.bgp.{rib,attributes,session,fsm} are allocated or traversed "
        "millions of times; an instance __dict__ there costs memory "
        "and attribute-chase time on the hottest paths."
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        rel = ctx.rel
        if rel.endswith(TARGET_SUFFIXES):
            return True
        return any(part in rel for part in TARGET_DIRS)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = [_base_name(base) for base in node.bases]
            if any(name in _EXEMPT_BASES for name in base_names):
                continue
            if any(
                name.endswith(_EXEMPT_SUFFIXES) for name in base_names
            ):
                continue
            if _declares_slots(node) or _has_slots_decorator(node):
                continue
            yield ctx.finding(
                self.id,
                node,
                f"class '{node.name}' in a hot-path module has no "
                "__slots__ (declare one, or use "
                "@dataclass(slots=True))",
            )
