"""The origin-table scanner: one AST walk per file for every
determinism hazard of the form "resolve the origin, look it up".

Four checks share that shape and therefore this walk:

- **DET001** — a call whose origin is the module-level ``random``
  or ``numpy.random`` stream.  Those functions all draw from one
  hidden generator, so a result produced through them depends on
  call order across the whole process, not on a seed.  Constructing
  seeded instances (:data:`SEEDED_RANDOM`, :data:`NUMPY_GENERATORS`)
  is the fix, not the bug — but a NumPy generator built with no seed
  seeds itself from OS entropy, so that is flagged too.  Methods on
  an instance never resolve to an origin and stay clean.
  Aliases resolve: ``from random import randint as ri`` and
  ``import random as rnd`` are both seen.
- **DET002** — a call whose origin is in :data:`WALL_CLOCK`.  Results
  must be functions of seeds and configs; display-only timing carries
  a justified pragma next to the code.
- **DET004** — ``builtins.hash`` of a provably textual value.
  ``hash(str/bytes)`` is salted per process by ``PYTHONHASHSEED``;
  tuple hashes mix element hashes, so a tuple with a textual element
  is just as salted.  Int hashes are value-based and stay legal.
- **DET105's source** — a read of :data:`ENV_ORIGINS`.  There is no
  per-file rule for it (``os.environ`` is legitimate in CLI glue);
  only reachability from a digest makes it a finding.

The per-file rules in :mod:`repro.lint.rules.det_origins` report the
sites carrying their id (subject to pragmas);
:func:`repro.lint.semantic.taint.direct_impure_sites` consumes all of
them *ignoring* pragmas, so per-file and interprocedural semantics
cannot drift apart.  :attr:`ModuleContext.origin_sites` memoizes the
walk, so both consumers share one pass.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

if TYPE_CHECKING:
    from .engine import ModuleContext

__all__ = ["ENV_ORIGINS", "OriginSite", "scan_origins"]

WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)

#: Seeded-generator constructors: instantiating these is the fix, not
#: the bug.
SEEDED_RANDOM = frozenset({"random.Random", "random.SystemRandom"})

#: ``numpy.random`` constructors.  Given a seed (or, for ``Generator``,
#: a bit generator) they are the fix; given nothing they read OS
#: entropy.
NUMPY_GENERATORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.MT19937",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.SFC64",
    }
)

ENV_ORIGINS = frozenset(
    {"os.environ", "os.getenv", "os.environb", "os.getenvb"}
)


class OriginSite(NamedTuple):
    """One impure site: the id that reports it, where, and why."""

    rule: str
    node: ast.AST
    message: str


def _call_site(ctx: "ModuleContext", node: ast.Call) -> Optional[OriginSite]:
    origin = ctx.resolve(node.func)
    if origin is None:
        return None
    if origin in WALL_CLOCK:
        return OriginSite(
            "DET002",
            node,
            f"wall-clock read '{origin}' (results must be "
            "functions of seeds; display-only timing needs "
            "a justified pragma)",
        )
    if origin == "random" or origin.startswith("random."):
        if origin in SEEDED_RANDOM:
            return None
        return OriginSite(
            "DET001",
            node,
            f"call to global '{origin}' (draws from the "
            "process-wide stream; use a seeded "
            "random.Random instance)",
        )
    if origin.startswith("numpy.random."):
        if origin not in NUMPY_GENERATORS:
            return OriginSite(
                "DET001",
                node,
                f"call to global '{origin}' (numpy's process-wide "
                "stream; use a seeded numpy.random generator "
                "instance)",
            )
        given = node.args + [keyword.value for keyword in node.keywords]
        if not given or (
            isinstance(given[0], ast.Constant) and given[0].value is None
        ):
            return OriginSite(
                "DET001",
                node,
                f"'{origin}' constructed without a seed (it seeds "
                "itself from OS entropy; pass an explicit seed)",
            )
        return None
    if origin == "builtins.hash" and len(node.args) == 1:
        inferred = ctx.infer(node.args[0])
        if inferred in ("str", "bytes"):
            return OriginSite(
                "DET004",
                node,
                f"hash() of a {inferred} value is salted by "
                "PYTHONHASHSEED and differs between runs; use "
                "zlib.crc32/hashlib for a stable hash",
            )
        if inferred == "tuple[str]":
            return OriginSite(
                "DET004",
                node,
                "hash() of a tuple with str/bytes elements mixes "
                "their PYTHONHASHSEED-salted hashes and differs "
                "between runs; hash a canonical encoding with "
                "zlib.crc32/hashlib instead",
            )
    return None


def _env_site(ctx: "ModuleContext", node: ast.AST) -> Optional[OriginSite]:
    origin = ctx.resolve(node)
    if origin not in ENV_ORIGINS:
        return None
    parent = ctx.parent(node)
    if (
        isinstance(parent, ast.Attribute)
        and ctx.resolve(parent) in ENV_ORIGINS
    ):
        return None  # counted once, at the outermost origin
    return OriginSite(
        "DET105",
        node,
        f"reads the process environment ({origin}) — "
        "host-dependent state",
    )


def scan_origins(ctx: "ModuleContext") -> Tuple[OriginSite, ...]:
    """Every origin-table site in one file, in ``ast.walk`` order."""
    sites = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            site = _call_site(ctx, node)
        elif isinstance(node, (ast.Attribute, ast.Name)):
            site = _env_site(ctx, node)
        else:
            continue
        if site is not None:
            sites.append(site)
    return tuple(sites)
