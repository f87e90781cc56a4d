"""PRO001: static Protocol conformance for the scheduler contract.

``EventScheduler`` is a runtime-checkable Protocol, but runtime
checks only see method *presence* at ``isinstance`` time — a drifted
arity (``run_until(end_time)`` losing its ``max_events``) or a method
turned property passes ``isinstance`` and then explodes deep inside a
differential run.  This pass checks the declared implementers
structurally at lint time, method set *and* signature shape:

- every public Protocol method must exist on the implementer (through
  its conservative MRO);
- property-ness must match (a Protocol ``@property`` implemented as a
  method changes every call site);
- the implementer must accept every call the Protocol permits: its
  required positional count cannot exceed the Protocol's positional
  count, it must take at least as many positionals (or ``*args``),
  a Protocol ``*args`` demands an implementer ``*args``, and every
  Protocol keyword-only name must be addressable.

Findings anchor at the implementer's class line.  If the Protocol
module is not part of the linted tree (fixture subsets), the pass is
silent — absence of evidence is not a finding.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..engine import Finding, ProgramContext, ProgramRule

__all__ = ["ProtocolConformanceRule"]

#: (protocol fqn, implementer fqns) pairs to enforce.
CONTRACTS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    (
        "repro.sim.scheduler.EventScheduler",
        (
            "repro.sim.engine.Engine",
            "repro.sim.refengine.ReferenceEngine",
        ),
    ),
)


class ProtocolConformanceRule(ProgramRule):
    id = "PRO001"
    title = "implementer drifts from its Protocol's method contract"
    rationale = (
        "Engine and ReferenceEngine must stay "
        "call-compatible with the EventScheduler Protocol: the "
        "differential harness swaps them freely, and runtime "
        "isinstance() only checks method names.  A renamed method, a "
        "property/method mismatch, or a narrowed signature fails "
        "lint here instead of mid-simulation."
    )

    def check_program(
        self, program: ProgramContext
    ) -> Iterable[Finding]:
        index = program.index
        for proto_fqn, implementer_fqns in CONTRACTS:
            proto = index.class_summary(proto_fqn)
            if proto is None or not proto["protocol"]:
                continue  # protocol not in this tree: nothing provable
            for impl_fqn in sorted(implementer_fqns):
                yield from self._check_implementer(
                    program, proto_fqn, proto, impl_fqn
                )

    def _check_implementer(
        self,
        program: ProgramContext,
        proto_fqn: str,
        proto: dict,
        impl_fqn: str,
    ) -> Iterable[Finding]:
        index = program.index
        module = impl_fqn.rsplit(".", 1)[0]
        if module not in index.by_module:
            return  # implementer's module not linted: skip, not fail
        resolved = index.resolve_ref(impl_fqn)
        rel = index.by_module[module].rel
        if resolved is None or resolved[0] != "class":
            yield program.finding(
                self.id,
                rel,
                1,
                f"declared {proto_fqn} implementer {impl_fqn} does "
                "not exist (renamed or moved? update the contract in "
                "pro001_protocol.py alongside the code)",
            )
            return
        _, canonical, klass = resolved
        line = klass["line"]
        for name in sorted(proto["methods"]):
            if name.startswith("_"):
                continue
            proto_method = proto["methods"][name]
            found = index.method_lookup(canonical, name)
            if found is None:
                yield program.finding(
                    self.id,
                    rel,
                    line,
                    f"{impl_fqn} is missing {proto_fqn} method "
                    f"{name}()",
                )
                continue
            _, impl_method = found
            if bool(proto_method["property"]) != bool(
                impl_method["property"]
            ):
                expected = (
                    "a property"
                    if proto_method["property"]
                    else "a method"
                )
                yield program.finding(
                    self.id,
                    rel,
                    impl_method["line"]
                    if impl_method["line"]
                    else line,
                    f"{impl_fqn}.{name} must be {expected} to match "
                    f"{proto_fqn}.{name}",
                )
                continue
            if proto_method["property"]:
                continue  # properties have no caller-visible arity
            problem = _arity_problem(proto_method, impl_method)
            if problem is not None:
                yield program.finding(
                    self.id,
                    rel,
                    impl_method["line"]
                    if impl_method["line"]
                    else line,
                    f"{impl_fqn}.{name}() signature drifts from "
                    f"{proto_fqn}.{name}(): {problem}",
                )


def _arity_problem(proto: dict, impl: dict) -> Optional[str]:
    """Why ``impl`` cannot take every call ``proto`` permits (None
    when it can)."""
    positional = len(proto["params"])
    if impl["required"] > positional:
        return (
            f"requires {impl['required']} positional argument(s) but "
            f"the protocol only guarantees {positional}"
        )
    if len(impl["params"]) < positional and not impl["vararg"]:
        return (
            f"accepts only {len(impl['params'])} positional "
            f"argument(s) where the protocol passes {positional}"
        )
    if proto["vararg"] and not impl["vararg"]:
        return "drops the protocol's *args"
    missing: List[str] = [
        kw
        for kw in proto["kwonly"]
        if kw not in impl["kwonly"]
        and kw not in impl["params"]
        and not impl["kwarg"]
    ]
    if missing:
        return (
            "missing keyword argument(s) the protocol declares: "
            + ", ".join(sorted(missing))
        )
    return None
