"""Interprocedural determinism taint: impure facts, found by
reachability over the call graph.

The per-file determinism rules (DET001–DET004) flag an impure
*call site*; this pass answers the question they cannot: **can a
digest reach it?**  The repo's digests — ``state_digest``,
``detection_digest``, ``partition_digest``, ``combined_digest``, and
the golden-corpus builders — are the bit-stability contract; any
wall-clock read, global-RNG draw, environment read, unsorted
iteration, or salted ``hash`` transitively reachable from one is a
latent nondeterminism that no per-file rule and no lucky fuzz seed is
guaranteed to catch.

:func:`taint_findings` is a forward BFS from the digest entry points
(recursive and mutually recursive chains converge because a node is
visited once); every reachable function's *direct* impure site becomes
a finding anchored at that source line, carrying the full entry→source
call chain in the message.

Anchoring at the source site (not the digest) is what makes the
existing pragma machinery compose: a ``# lint: allow[DET102] -- ...``
on the offending line is a reviewable claim about that line, and a
per-file ``DET002`` pragma does *not* silence the interprocedural
finding — reachability from a digest is exactly the evidence that
such a pragma's "display-only" justification needs re-review.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from ..engine import ModuleContext
from .callgraph import CallGraph

__all__ = [
    "ENTRY_NAMES",
    "TAINT_RULES",
    "direct_impure_sites",
    "entry_points",
    "taint_findings",
]

#: Bare function names treated as determinism-critical roots.  Digest
#: methods across tiers share these names by repo convention; the
#: golden-corpus builders are the other place a stray clock read
#: becomes a corrupted frozen artifact.
ENTRY_NAMES = frozenset(
    {
        "state_digest",
        "detection_digest",
        "partition_digest",
        "combined_digest",
        "route_state_digest",
        "build_golden",
        "write_golden",
    }
)

class TaintKind(NamedTuple):
    """One interprocedural rule: the id that reports the same site
    per file (DET105's source has no per-file rule, so it reports
    under its own id), the label its messages open with, and the
    catalogue text ``--list-rules`` prints."""

    source: str
    label: str
    title: str
    rationale: str


#: Interprocedural rule id -> its :class:`TaintKind`; the DET1xx rule
#: classes are generated from this table.
TAINT_RULES = {
    "DET101": TaintKind(
        "DET001",
        "global RNG draw",
        "global RNG reachable from a digest entry point",
        "A module-level random.* draw anywhere under a digest's call "
        "graph makes the digest depend on interpreter-global RNG "
        "state.  DET001 flags the call site; DET101 proves a digest "
        "can actually reach it — route a seeded random.Random "
        "instance instead.",
    ),
    "DET102": TaintKind(
        "DET002",
        "wall-clock read",
        "wall-clock read reachable from a digest entry point",
        "time.time()/perf_counter()/datetime.now() reachable from a "
        "digest means rerunning the same input can hash differently. "
        "A DET002 pragma claims the value is display-only; DET102 is "
        "the static check of that claim — it fires exactly when the "
        "clock read sits under state_digest/detection_digest/"
        "partition_digest/combined_digest or the golden-corpus "
        "builders, with the offending call chain in the message.",
    ),
    "DET103": TaintKind(
        "DET003",
        "unsorted iteration",
        "unsorted iteration reachable from a digest entry point",
        "Set/dict/filesystem iteration order is not part of the "
        "language contract; three frames below a digest it silently "
        "reorders the bytes being hashed.  Same fix as DET003 "
        "(sorted()/canonical order), enforced transitively.",
    ),
    "DET104": TaintKind(
        "DET004",
        "salted hash()",
        "salted hash() reachable from a digest entry point",
        "builtins.hash() of str/bytes changes per process "
        "(PYTHONHASHSEED); feeding it into anything a digest reaches "
        "breaks cross-run stability.  Use hashlib or the repo's "
        "stable-hash helpers.",
    ),
    "DET105": TaintKind(
        "DET105",
        "environment read",
        "environment read reachable from a digest entry point",
        "os.environ/os.getenv under a digest makes the result depend "
        "on host configuration.  There is deliberately no per-file "
        "rule for environment reads — they are legitimate in CLI "
        "glue — so this interprocedural check is the only line of "
        "defense.",
    ),
}

_TAINT_OF_SOURCE = {
    kind.source: rule for rule, kind in TAINT_RULES.items()
}


def direct_impure_sites(ctx: ModuleContext) -> List[dict]:
    """Every impure site in one file, as taint sources.

    Reads the same origin-table scan and DET003 walk the per-file
    rules report from (so per-file and interprocedural semantics can
    never drift apart) — *ignoring* per-file pragmas, which suppress
    the local finding but not the fact.
    """
    from ..rules.det003_unsorted_iter import UnsortedIterationRule

    found = [
        (site.node.lineno, site.rule, site.message)
        for site in ctx.origin_sites
    ]
    found += [
        (finding.line, finding.rule, finding.message)
        for finding in UnsortedIterationRule().check(ctx)
    ]
    sites = [
        {"line": line, "rule": _TAINT_OF_SOURCE[rule], "what": what}
        for line, rule, what in found
    ]
    sites.sort(key=lambda site: (site["line"], site["rule"]))
    return sites


def entry_points(graph: CallGraph) -> List[str]:
    """Every graph node whose bare name is a digest entry name."""
    return sorted(
        fqn
        for fqn, info in graph.nodes.items()
        if info["name"] in ENTRY_NAMES
    )


def taint_findings(
    graph: CallGraph, only: Optional[Iterable[str]] = None
) -> List[dict]:
    """DET1xx finding payloads: ``{"rule", "path", "line", "message"}``.

    One finding per (rule, source path, source line), anchored at the
    impure site so pragmas land where the hazard lives; the message
    carries the full entry-to-source call chain.
    """
    entries = entry_points(graph)
    if not entries:
        return []
    wanted = frozenset(only) if only is not None else None
    parents = graph.reachable_from(entries)
    found: Dict[tuple, dict] = {}
    for fqn in sorted(parents):
        info = graph.nodes[fqn]
        for site in info["impure"]:
            rule = site["rule"]
            if wanted is not None and rule not in wanted:
                continue
            key = (rule, info["path"], site["line"])
            if key in found:
                continue
            chain = CallGraph.chain(parents, fqn)
            label = TAINT_RULES[rule].label
            found[key] = {
                "rule": rule,
                "path": info["path"],
                "line": site["line"],
                "message": (
                    f"{label} reachable from digest entry point "
                    f"{chain[0]} via call chain: "
                    + " -> ".join(chain)
                    + f"; {site['what']} — determinism-critical "
                    "paths must stay pure (fix the source, or "
                    f"pragma allow[{rule}] on this line only if "
                    "the value provably never enters a digest)"
                ),
            }
    return [found[key] for key in sorted(found)]
