"""DET001 / DET002 / DET004: the per-file origin-table rules.

All three are "resolve the call's origin, look it up" checks, so they
share the single walk in :mod:`repro.lint.origins` (which documents
each hazard); a rule here is only the identity — id, title, rationale
— under which its sites are reported and pragma-suppressed.
"""

from __future__ import annotations

from typing import Iterable

from ..engine import Finding, ModuleContext, Rule


class _OriginRule(Rule):
    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for site in ctx.origin_sites:
            if site.rule == self.id:
                yield ctx.finding(self.id, site.node, site.message)


class GlobalRandomRule(_OriginRule):
    id = "DET001"
    title = "call on the global random stream"
    rationale = (
        "All randomness must flow from explicitly seeded "
        "random.Random / numpy.random generator instances; the "
        "module-level functions of both share one process-global "
        "stream, and a numpy generator built without a seed reads "
        "OS entropy."
    )


class WallClockRule(_OriginRule):
    id = "DET002"
    title = "wall-clock read"
    rationale = (
        "Results must be functions of seeds, never of real time; "
        "display-only timing needs a justified pragma."
    )


class BuiltinHashRule(_OriginRule):
    id = "DET004"
    title = "builtin hash() of a str/bytes value"
    rationale = (
        "hash(str/bytes) is PYTHONHASHSEED-salted and differs "
        "between runs; use zlib.crc32 or hashlib for stable hashes."
    )
