"""The ``python -m repro.lint`` command line.

Exit codes: 0 = clean (every finding fixed or pragma-justified),
1 = new findings, 2 = usage or internal error.  ``--json``
prints the machine-readable report (the same payload ``--output``
writes for CI artifact upload on failure).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import Finding, LintEngine, LintError
from .rules import all_rules

__all__ = ["main", "build_report"]

#: Bumped 1 -> 2 when the whole-program passes landed.
JSON_SCHEMA_VERSION = 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant linter for determinism, "
            "mergeability, and hot-path discipline "
            "(see docs/LINTING.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/ and tests/ "
        "under --root)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root: lint paths default to <root>/src and "
        "<root>/tests, and finding paths are reported relative "
        "to it (default: cwd)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the JSON report instead of text",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE (CI uploads it as "
        "an artifact on failure)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--graph",
        metavar="FILE",
        help="write the project call graph (nodes, edges, impure "
        "sites) as JSON to FILE",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print findings per rule, files analyzed, and wall "
        "time to stderr",
    )
    return parser


def build_report(
    root: Path, new: List[Finding], suppressed: int, files: int
) -> dict:
    counts: dict = {}
    for finding in new:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return {
        "schema": JSON_SCHEMA_VERSION,
        "root": str(root),
        "files": files,
        "findings": [finding.to_payload() for finding in new],
        "counts": {rule: counts[rule] for rule in sorted(counts)},
        "suppressed": suppressed,
    }


def _render_stats(report: dict, elapsed: float) -> str:
    lines = [
        f"files analyzed:   {report['files']}",
        f"wall time:        {elapsed:.2f}s",
        f"findings:         {len(report['findings'])} new, "
        f"{report['suppressed']} suppressed",
    ]
    for rule, count in report["counts"].items():
        lines.append(f"  {rule:8s} {count}")
    return "\n".join(lines)


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"error: --root {root} is not a directory", file=sys.stderr)
        return 2
    if args.paths:
        paths = [Path(path) for path in args.paths]
    else:
        paths = [root / "src", root / "tests"]
        paths = [path for path in paths if path.exists()]
    if not paths:
        print("error: nothing to lint", file=sys.stderr)
        return 2

    engine = LintEngine(root)
    # lint: allow[DET002] -- wall time is --stats display output only
    started = time.perf_counter()
    try:
        result = engine.lint_paths(paths)
    except (LintError, UnicodeDecodeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # lint: allow[DET002] -- wall time is --stats display output only
    elapsed = time.perf_counter() - started

    if args.graph:
        program = engine.last_program
        payload = program.graph.to_payload() if program else {}
        Path(args.graph).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    new = result.findings
    report = build_report(root, new, len(result.suppressed), result.files)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for finding in new:
            print(finding.render())
        summary = (
            f"{result.files} file(s): {len(new)} new finding(s), "
            f"{len(result.suppressed)} pragma-suppressed"
        )
        print(summary)
    if args.stats:
        print(_render_stats(report, elapsed), file=sys.stderr)
    return 1 if new else 0
