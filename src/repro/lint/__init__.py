"""``repro.lint``: AST-based invariant linter for this repo.

Every result this reproduction publishes — golden corpora,
differential digests, bit-identical sharded campaigns — rests on
source-level invariants (seeded randomness, no wall-clock in results,
commutative merges, slotted hot types) that ``repro.lint`` enforces
statically.  Run ``python -m repro.lint`` from the repo root; see
``docs/LINTING.md`` for the rule catalogue and the pragma grammar.
"""

from .cli import main
from .engine import (
    Finding,
    LintEngine,
    LintError,
    ModuleContext,
    Pragma,
    Rule,
    iter_python_files,
)
from .rules import all_rules

__all__ = [
    "Finding",
    "LintEngine",
    "LintError",
    "ModuleContext",
    "Pragma",
    "Rule",
    "all_rules",
    "iter_python_files",
    "main",
]
