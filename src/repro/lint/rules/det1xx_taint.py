"""DET101–DET105: interprocedural determinism taint.

The per-file determinism rules (DET001–DET004) see one call site; a
pragma there asserts "this impurity never reaches a digest" — and
nothing checks the assertion.  These rules do: any function reachable
from a digest entry point (``state_digest``, ``detection_digest``,
``partition_digest``, ``combined_digest``, the golden-corpus
builders) that *transitively* reaches an impure source is a finding,
anchored at the impure source line with the full call chain in the
message.

The ids are disjoint from the per-file family on purpose: a
``# lint: allow[DET002]`` does not silence DET102.  Proving a clock
read harmless locally ("display only") and proving it unreachable
from every digest are different claims; each needs its own pragma
with its own justification.  DET105 (environment reads) has no
per-file counterpart at all — ``os.environ`` is fine in CLI glue and
only becomes a hazard when a digest can see it.
"""

from __future__ import annotations

from typing import Iterable

from ..engine import Finding, ProgramContext, ProgramRule
from ..semantic.taint import TAINT_RULES

__all__ = ["TAINT_RULE_CLASSES"]


class _TaintRule(ProgramRule):
    """Shared driver: the taint pass runs once per engine run (cached
    on the ProgramContext); each id filters for its own findings."""

    def check_program(
        self, program: ProgramContext
    ) -> Iterable[Finding]:
        for payload in program.taint_findings():
            if payload["rule"] != self.id:
                continue
            yield program.finding(
                self.id,
                payload["path"],
                payload["line"],
                payload["message"],
            )


#: One rule class per :data:`TAINT_RULES` row, in id order.
TAINT_RULE_CLASSES = tuple(
    type(
        f"Taint{rule_id}Rule",
        (_TaintRule,),
        {"id": rule_id, "title": kind.title, "rationale": kind.rationale},
    )
    for rule_id, kind in sorted(TAINT_RULES.items())
)
