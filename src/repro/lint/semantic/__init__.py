"""Whole-program semantic layer for ``repro.lint``.

Per-file rules see one AST; the semantic layer sees the project:

- :mod:`~repro.lint.semantic.symbols` — per-module summaries
  (module-level import aliases, functions, classes, registries, type
  descriptors), read from each file's one binding table
  (:class:`~repro.lint.engine.ModuleContext`), and the cross-module
  :class:`~repro.lint.semantic.symbols.ProjectIndex`;
- :mod:`~repro.lint.semantic.callgraph` — the conservative call graph
  (direct calls, inferred method dispatch, Protocol fan-out, escaping
  function references);
- :mod:`~repro.lint.semantic.taint` — impure facts reachable from a
  digest, as DET1xx findings with full call chains.
"""

from .callgraph import CallGraph, build_callgraph
from .symbols import (
    ModuleSummary,
    ProjectIndex,
    module_name_for,
    summarize_module,
)
from .taint import (
    ENTRY_NAMES,
    TAINT_RULES,
    direct_impure_sites,
    entry_points,
    taint_findings,
)

__all__ = [
    "CallGraph",
    "ENTRY_NAMES",
    "ModuleSummary",
    "ProjectIndex",
    "TAINT_RULES",
    "build_callgraph",
    "direct_impure_sites",
    "entry_points",
    "module_name_for",
    "summarize_module",
    "taint_findings",
]
