"""The AST lint engine: file loading, scopes, pragmas, dispatch.

``repro.lint`` turns the repo's folklore determinism/mergeability
invariants into enforced static checks.  The engine owns everything
rule modules share:

- :class:`Finding` — one violation (rule id, path, line, snippet);
- :class:`Pragma` — the inline allow syntax
  (``# lint: allow[RULE-ID] -- justification``), parsed from the
  token stream so string literals can never fake a pragma;
- :class:`ModuleContext` — per-file AST plus the semantic helpers the
  rules need but ``ast`` does not provide: parent links, import-alias
  resolution (``from random import randint as ri`` still resolves to
  ``random.randint``), and a conservative scope-aware type inference
  (string literals, annotations, set/dict constructors);
- :class:`LintEngine` — runs every rule over every file, applies
  pragma suppression, and reports stale pragmas.

Rules live one family per module under :mod:`repro.lint.rules`; see
``docs/LINTING.md`` for the catalogue and how to add one.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .origins import OriginSite, scan_origins

__all__ = [
    "Finding",
    "LintError",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "Pragma",
    "ProgramContext",
    "ProgramRule",
    "Rule",
    "iter_python_files",
]


class LintError(RuntimeError):
    """A file could not be linted at all (e.g. a syntax error)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix-style path relative to the lint root
    line: int
    col: int
    message: str
    snippet: str  # the stripped source line

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_payload(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message}\n    {self.snippet}"
        )


#: Grammar: ``allow[RULE-ID] -- why this is fine`` after a comment
#: opening exactly with ``lint:`` (ids comma-separated).
_PRAGMA_HEAD = re.compile(r"^#\s*lint:\s*(.*)$")
_PRAGMA_ALLOW = re.compile(
    r"allow\[\s*([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\s*\]\s*(?:--\s*(.*))?$"
)


@dataclass
class Pragma:
    """One parsed ``# lint: allow[...]`` comment."""

    line: int
    rules: Tuple[str, ...]
    justification: str
    own_line: bool  # comment-only line: applies to the next line
    used: bool = False


@dataclass(frozen=True)
class PragmaIssue:
    """A pragma the engine refuses to honor (LINT000 material)."""

    line: int
    message: str
    snippet: str


class _Scope:
    """One lexical scope: import aliases plus inferred local types."""

    __slots__ = ("node", "parent", "imports", "types", "assigned")

    def __init__(self, node: ast.AST, parent: Optional["_Scope"]) -> None:
        self.node = node
        self.parent = parent
        #: local name -> canonical dotted origin ("random.randint")
        self.imports: Dict[str, str] = {}
        #: local name -> "str" | "bytes" | "set" | "dict" | None(conflict)
        self.types: Dict[str, Optional[str]] = {}
        #: every name bound here by any non-import statement
        self.assigned: set = set()


_BUILTIN_NAMES = frozenset(
    {
        "hash",
        "sorted",
        "set",
        "frozenset",
        "dict",
        "list",
        "tuple",
        "len",
        "sum",
        "min",
        "max",
        "any",
        "all",
        "str",
        "repr",
        "format",
        "bytes",
        "iter",
        "reversed",
        "enumerate",
        "zip",
        "map",
        "filter",
        "print",
    }
)

_STR_METHODS = frozenset(
    {"format", "join", "lower", "upper", "strip", "decode", "replace"}
)

_ANNOTATION_TYPES = {
    "str": "str",
    "bytes": "bytes",
    "set": "set",
    "Set": "set",
    "MutableSet": "set",
    "frozenset": "set",
    "FrozenSet": "set",
    "dict": "dict",
    "Dict": "dict",
    "Mapping": "dict",
    "MutableMapping": "dict",
}

#: annotation wrappers to look through: Optional[str] means str here.
_TRANSPARENT_WRAPPERS = frozenset({"Optional", "Final", "Annotated"})


class ModuleContext:
    """Everything the rules may ask about one parsed source file."""

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source)
        except SyntaxError as error:
            raise LintError(f"{rel}: cannot parse: {error}") from error
        self._parents: Dict[int, ast.AST] = {}
        self._scope_of: Dict[int, _Scope] = {}
        self._module_scope = _Scope(self.tree, None)
        self._link_parents()
        self._build_scopes()
        self.pragmas: Dict[int, Pragma] = {}
        self.pragma_issues: List[PragmaIssue] = []
        self._parse_pragmas()

    # -- structure ----------------------------------------------------------

    def _link_parents(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    # -- scopes, imports, and cheap type inference --------------------------

    def _build_scopes(self) -> None:
        self._scope_of[id(self.tree)] = self._module_scope
        self._collect(self.tree, self._module_scope)

    def _collect(self, node: ast.AST, scope: _Scope) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                scope.assigned.add(child.name)
                inner = _Scope(child, scope)
                self._scope_of[id(child)] = inner
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._bind_params(child, inner)
                self._collect(child, inner)
                continue
            if isinstance(child, ast.Lambda):
                inner = _Scope(child, scope)
                self._scope_of[id(child)] = inner
                self._bind_params(child, inner)
                self._collect(child, inner)
                continue
            self._record_bindings(child, scope)
            self._collect(child, scope)

    def _bind_params(self, node: ast.AST, scope: _Scope) -> None:
        arguments = node.args
        params = list(arguments.posonlyargs) + list(arguments.args)
        params += list(arguments.kwonlyargs)
        for extra in (arguments.vararg, arguments.kwarg):
            if extra is not None:
                params.append(extra)
        for param in params:
            scope.assigned.add(param.arg)
            inferred = self._annotation_type(param.annotation)
            self._bind_type(scope, param.arg, inferred)

    def _record_bindings(self, node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origin = alias.name if alias.asname else local
                scope.imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                # Relative imports resolve inside this package; the
                # rules only care about stdlib/third-party origins.
                for alias in node.names:
                    scope.assigned.add(alias.asname or alias.name)
                return
            for alias in node.names:
                local = alias.asname or alias.name
                scope.imports[local] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind_target(scope, target, node.value)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                scope.assigned.add(node.target.id)
                inferred = self._annotation_type(node.annotation)
                if inferred is None and node.value is not None:
                    inferred = self.infer(node.value)
                self._bind_type(scope, node.target.id, inferred)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                scope.assigned.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._bind_target(scope, node.target, None)
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                self._bind_target(scope, node.optional_vars, None)
        elif isinstance(node, ast.ExceptHandler):
            if node.name:
                scope.assigned.add(node.name)
        elif isinstance(node, ast.comprehension):
            self._bind_target(scope, node.target, None)

    def _bind_target(
        self, scope: _Scope, target: ast.AST, value: Optional[ast.AST]
    ) -> None:
        if isinstance(target, ast.Name):
            scope.assigned.add(target.id)
            inferred = self.infer(value) if value is not None else None
            self._bind_type(scope, target.id, inferred)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(scope, element, None)
        elif isinstance(target, ast.Starred):
            self._bind_target(scope, target.value, None)

    def _bind_type(
        self, scope: _Scope, name: str, inferred: Optional[str]
    ) -> None:
        if name in scope.types and scope.types[name] != inferred:
            scope.types[name] = None  # conflicting rebinds: unknown
        else:
            scope.types[name] = inferred

    def _annotation_type(self, node: Optional[ast.AST]) -> Optional[str]:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return _ANNOTATION_TYPES.get(node.id)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                return self._annotation_type(
                    ast.parse(node.value, mode="eval").body
                )
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in _TRANSPARENT_WRAPPERS
            ):
                inner = node.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self._annotation_type(inner)
            return self._annotation_type(node.value)
        return None

    def _scope_for(self, node: ast.AST) -> _Scope:
        current: Optional[ast.AST] = node
        while current is not None:
            scope = self._scope_of.get(id(current))
            if scope is not None:
                return scope
            current = self.parent(current)
        return self._module_scope

    def _lookup(self, node: ast.AST, name: str):
        """``("import", origin)`` / ``("var", type)`` / ``None``.

        Walks the enclosing scopes like the interpreter would; class
        bodies are skipped unless the name is used directly in one.
        """
        scope: Optional[_Scope] = self._scope_for(node)
        first = True
        while scope is not None:
            skip = isinstance(scope.node, ast.ClassDef) and not first
            if not skip:
                if name in scope.imports:
                    return ("import", scope.imports[name])
                if name in scope.assigned or name in scope.types:
                    return ("var", scope.types.get(name))
            first = False
            scope = scope.parent
        return None

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted origin of a name/attribute expression.

        ``ri`` after ``from random import randint as ri`` resolves to
        ``"random.randint"``; an unshadowed builtin name resolves to
        ``"builtins.<name>"``; anything locally rebound is ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        binding = self._lookup(node, node.id)
        if binding is None:
            if node.id in _BUILTIN_NAMES:
                base = f"builtins.{node.id}"
            else:
                return None
        elif binding[0] == "import":
            base = binding[1]
        else:
            return None
        return ".".join([base] + list(reversed(parts)))

    def infer(self, node: Optional[ast.AST]) -> Optional[str]:
        """Cheap static type: ``"str"``/``"bytes"``/``"set"``/``"dict"``,
        or ``"tuple[str]"`` for a tuple literal with a provably textual
        element (tuple hashes mix the element hashes, so one salted
        element salts the whole tuple).

        ``None`` means unknown — rules must treat unknown as innocent.
        """
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return "str"
            if isinstance(node.value, bytes):
                return "bytes"
            return None
        if isinstance(node, ast.JoinedStr):
            return "str"
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(node, ast.Tuple):
            if any(
                self.infer(element) in ("str", "bytes", "tuple[str]")
                for element in node.elts
            ):
                return "tuple[str]"
            return None
        if isinstance(node, ast.Name):
            binding = self._lookup(node, node.id)
            if binding is not None and binding[0] == "var":
                return binding[1]
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.infer(node.left)
            if left in ("str", "bytes"):
                return left
            return None
        if isinstance(node, ast.Call):
            origin = self.resolve(node.func)
            if origin in ("builtins.set", "builtins.frozenset"):
                return "set"
            if origin == "builtins.dict":
                return "dict"
            if origin in ("builtins.str", "builtins.repr", "builtins.format"):
                return "str"
            if origin == "builtins.bytes":
                return "bytes"
            if isinstance(node.func, ast.Attribute):
                if node.func.attr == "encode":
                    return "bytes"
                if node.func.attr in _STR_METHODS:
                    receiver = self.infer(node.func.value)
                    if node.func.attr == "decode":
                        return "str" if receiver == "bytes" else None
                    if receiver == "str":
                        return "str"
            return None
        return None

    # -- pragmas ------------------------------------------------------------

    def _parse_pragmas(self) -> None:
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except tokenize.TokenError:
            return
        code_lines = set()
        for token in tokens:
            if token.type in (
                tokenize.COMMENT,
                tokenize.NL,
                tokenize.NEWLINE,
                tokenize.INDENT,
                tokenize.DEDENT,
                tokenize.ENDMARKER,
            ):
                continue
            for row in range(token.start[0], token.end[0] + 1):
                code_lines.add(row)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            head = _PRAGMA_HEAD.match(token.string)
            if head is None:
                continue
            line = token.start[0]
            snippet = self.lines[line - 1].strip()
            body = head.group(1).strip()
            allow = _PRAGMA_ALLOW.match(body)
            if allow is None:
                self.pragma_issues.append(
                    PragmaIssue(
                        line,
                        "malformed pragma (expected "
                        "'# lint: allow[RULE-ID] -- justification')",
                        snippet,
                    )
                )
                continue
            rules = tuple(
                part.strip() for part in allow.group(1).split(",")
            )
            justification = (allow.group(2) or "").strip()
            if not justification:
                self.pragma_issues.append(
                    PragmaIssue(
                        line,
                        "pragma without a justification (append "
                        "'-- <why this is safe>')",
                        snippet,
                    )
                )
                continue
            self.pragmas[line] = Pragma(
                line=line,
                rules=rules,
                justification=justification,
                own_line=line not in code_lines,
            )

    def pragma_for(self, line: int, rule: str) -> Optional[Pragma]:
        """The pragma suppressing ``rule`` at ``line``, if any.

        A trailing pragma covers its own line; a comment-only pragma
        line covers the line directly below it.
        """
        pragma = self.pragmas.get(line)
        if pragma is not None and not pragma.own_line and rule in pragma.rules:
            return pragma
        above = self.pragmas.get(line - 1)
        if above is not None and above.own_line and rule in above.rules:
            return above
        return None

    # -- findings -----------------------------------------------------------

    @functools.cached_property
    def origin_sites(self) -> Tuple[OriginSite, ...]:
        """The file's origin-table sites (see :mod:`repro.lint.origins`),
        scanned once however many rules and passes read them."""
        return scan_origins(self)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        snippet = ""
        if 1 <= line <= len(self.lines):
            snippet = self.lines[line - 1].strip()
        return Finding(
            rule=rule,
            path=self.rel,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement
    :meth:`check` yielding findings for one module."""

    id: str = "RULE000"
    title: str = ""
    #: One-paragraph rationale, surfaced by ``--list-rules``.
    rationale: str = ""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def applies_to(self, ctx: ModuleContext) -> bool:
        return True


class ProgramContext:
    """Everything a whole-program rule may ask about the run: the
    project index, the call graph, and the live per-file contexts the
    file phase already parsed (CON001's send-site typing reads ASTs
    from them)."""

    def __init__(
        self, root: Path, contexts: Dict[str, ModuleContext], index, graph
    ) -> None:
        self.root = root
        self._contexts = contexts
        #: sorted ``(path, rel)`` pairs for every linted file
        self.files = [
            (contexts[rel].path, rel) for rel in sorted(contexts)
        ]
        self.index = index
        self.graph = graph
        self._taint: Optional[List[dict]] = None

    def context(self, rel: str) -> Optional[ModuleContext]:
        return self._contexts.get(rel)

    def taint_findings(self) -> List[dict]:
        """The DET1xx payloads, computed once per run (each DET1xx
        rule filters this shared result for its own id)."""
        if self._taint is None:
            from .semantic import taint_findings

            self._taint = taint_findings(self.graph)
        return self._taint

    def finding(
        self, rule: str, rel: str, line: int, message: str
    ) -> Finding:
        lines = self._contexts[rel].lines
        snippet = ""
        if 1 <= line <= len(lines):
            snippet = lines[line - 1].strip()
        return Finding(
            rule=rule,
            path=rel,
            line=line,
            col=1,
            message=message,
            snippet=snippet,
        )


class ProgramRule(Rule):
    """A rule that runs once over the whole program instead of once
    per file.  Findings still anchor at a concrete file/line, so the
    pragma machinery applies unchanged."""

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_program(self, program: ProgramContext) -> Iterable[Finding]:
        raise NotImplementedError


#: Directory names never descended into: generated trees whose .py
#: files are copies (egg-info, build outputs) or not ours (hidden
#: trees like .git/.venv, caches).
_EXCLUDED_DIR_NAMES = frozenset({"build", "dist", "__pycache__"})


def _excluded_dir(name: str) -> bool:
    return (
        name.startswith(".")
        or name in _EXCLUDED_DIR_NAMES
        or name.endswith(".egg-info")
    )


def _walk_python(directory: Path):
    for child in sorted(directory.iterdir()):
        if child.is_dir():
            if not _excluded_dir(child.name):
                yield from _walk_python(child)
        elif child.suffix == ".py":
            yield child


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` under the given files/directories, sorted.

    Hidden directories, ``build``/``dist``/``__pycache__``, and
    ``*.egg-info`` trees are pruned (their .py files are generated
    copies — linting ``src/repro.egg-info/`` would double-report
    every finding).  Explicitly named files are never filtered.
    """
    found = []
    for path in paths:
        if path.is_dir():
            found.extend(_walk_python(path))
        elif path.suffix == ".py":
            found.append(path)
    return sorted(set(found))


@dataclass
class LintReport:
    """The outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Pragma]] = field(default_factory=list)
    files: int = 0


class LintEngine:
    """Runs the rule pack over a source tree.

    Every run parses every file in-process: per-file rules run over
    each :class:`ModuleContext`, then the :class:`ProgramRule` passes
    run once over the project index and call graph built from those
    same live contexts.  The last run's :class:`ProgramContext` stays
    on ``self.last_program`` for the CLI's ``--graph`` dump.
    """

    def __init__(
        self,
        root: Path,
        rules: Optional[Sequence[Rule]] = None,
    ) -> None:
        from .rules import all_rules

        registry = all_rules()
        if rules is None:
            rules = registry
        self.root = Path(root)
        self.rules = list(rules)
        self.enabled_ids = frozenset(rule.id for rule in self.rules)
        # Pragmas may name any registered rule even when this run only
        # enables a subset (the determinism-audit wrapper does), so the
        # unknown-id check uses the full registry.
        self.known_ids = self.enabled_ids | frozenset(
            rule.id for rule in registry
        )
        self.last_program: Optional[ProgramContext] = None

    def _rel_for(self, path: Path) -> str:
        try:
            rel = path.resolve().relative_to(self.root.resolve())
        except ValueError:
            rel = path
        return rel.as_posix()

    def _report(
        self, report: LintReport, ctx: ModuleContext, finding: Finding
    ) -> None:
        """File ``finding`` under the pragma covering its line (marking
        the pragma used), or as a live finding."""
        pragma = ctx.pragma_for(finding.line, finding.rule)
        if pragma is not None:
            pragma.used = True
            report.suppressed.append((finding, pragma))
        else:
            report.findings.append(finding)

    def _pragma_findings(self, ctx: ModuleContext) -> List[Finding]:
        """LINT000: malformed, unknown-id, and stale pragmas — run
        after program suppression so a pragma whose only job is
        silencing an interprocedural finding is not "stale"."""

        def lint000(line: int, message: str, snippet: str) -> Finding:
            return Finding(
                rule="LINT000",
                path=ctx.rel,
                line=line,
                col=1,
                message=message,
                snippet=snippet,
            )

        findings = [
            lint000(issue.line, issue.message, issue.snippet)
            for issue in ctx.pragma_issues
        ]
        for line in sorted(ctx.pragmas):
            pragma = ctx.pragmas[line]
            snippet = ctx.lines[line - 1].strip()
            unknown = sorted(set(pragma.rules) - self.known_ids)
            if unknown:
                findings.append(
                    lint000(
                        line,
                        "pragma names unknown rule id(s): "
                        + ", ".join(unknown),
                        snippet,
                    )
                )
            elif (
                not pragma.used
                and set(pragma.rules) <= self.enabled_ids
            ):
                findings.append(
                    lint000(
                        line,
                        "stale pragma: suppresses nothing on this "
                        "line — remove it (dead grants hide real "
                        "regressions)",
                        snippet,
                    )
                )
        return findings

    def lint_paths(self, paths: Sequence[Path]) -> LintReport:
        from .semantic import (
            ProjectIndex,
            build_callgraph,
            summarize_module,
        )

        contexts: Dict[str, ModuleContext] = {}
        for path in iter_python_files(paths):
            rel = self._rel_for(path)
            contexts[rel] = ModuleContext(
                path, rel, path.read_text(encoding="utf-8")
            )
        report = LintReport(files=len(contexts))
        file_rules = [
            rule for rule in self.rules if not isinstance(rule, ProgramRule)
        ]
        for rel in sorted(contexts):
            ctx = contexts[rel]
            for rule in file_rules:
                if not rule.applies_to(ctx):
                    continue
                for finding in rule.check(ctx):
                    self._report(report, ctx, finding)

        program = None
        if contexts:
            index = ProjectIndex(
                [summarize_module(contexts[rel]) for rel in sorted(contexts)]
            )
            program = ProgramContext(
                self.root, contexts, index, build_callgraph(index)
            )
            for rule in self.rules:
                if not isinstance(rule, ProgramRule):
                    continue
                for finding in rule.check_program(program):
                    self._report(report, contexts[finding.path], finding)
        self.last_program = program

        for rel in sorted(contexts):
            report.findings.extend(self._pragma_findings(contexts[rel]))
        report.findings.sort(key=Finding.sort_key)
        return report
