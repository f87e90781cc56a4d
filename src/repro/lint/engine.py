"""The AST lint engine: file loading, scopes, pragmas, dispatch.

``repro.lint`` turns the repo's folklore determinism/mergeability
invariants into enforced static checks.  The engine owns everything
rule modules share:

- :class:`Finding` — one violation (rule id, path, line, snippet);
- :class:`Pragma` — the inline allow syntax
  (``# lint: allow[RULE-ID] -- justification``), parsed from the
  token stream so string literals can never fake a pragma;
- :class:`ModuleContext` — per-file AST plus the semantic helpers the
  rules need but ``ast`` does not provide: parent links and the file's
  one scoped binding table.  Every import (relative ones resolved
  against the file's module name), parameter, assignment and
  annotation is bound once, in the scope the interpreter binds it in,
  as a type descriptor (the language is documented in
  :mod:`repro.lint.semantic.symbols`).  :meth:`~ModuleContext.resolve`
  (``from random import randint as ri`` still resolves to
  ``random.randint``), :meth:`~ModuleContext.infer`,
  :meth:`~ModuleContext.expr_type` and the whole-program summaries all
  read that table;
- :class:`LintEngine` — runs every rule over every file, applies
  pragma suppression, and reports stale pragmas.

Rules live one family per module under :mod:`repro.lint.rules`; see
``docs/LINTING.md`` for the catalogue and how to add one.
"""

from __future__ import annotations

import ast
import builtins
import functools
import io
import re
import tokenize
from collections import deque
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
    "UNKNOWN",
    "iter_python_files",
    "module_name_for",
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


#: Every builtin name; an unshadowed one resolves to ``builtins.<name>``.
_BUILTIN_NAMES = frozenset(dir(builtins))

#: Annotation wrappers that do not change the type they wrap.
_TRANSPARENT = frozenset({"Optional", "Final", "Annotated", "ClassVar"})

#: Unknown: rules must treat it as innocent.
UNKNOWN: dict = {"k": "?"}

#: :meth:`ModuleContext.infer`'s vocabulary, by builtin type name or
#: by the dotted name of a ``typing``/``collections.abc`` container.
_VOCAB = {
    "str": "str",
    "bytes": "bytes",
    "set": "set",
    "frozenset": "set",
    "typing.Set": "set",
    "typing.MutableSet": "set",
    "typing.FrozenSet": "set",
    "collections.abc.Set": "set",
    "collections.abc.MutableSet": "set",
    "dict": "dict",
    "typing.Dict": "dict",
    "typing.Mapping": "dict",
    "typing.MutableMapping": "dict",
    "collections.abc.Mapping": "dict",
    "collections.abc.MutableMapping": "dict",
}

_STR_METHODS = frozenset(
    {"format", "join", "lower", "upper", "strip", "decode", "replace"}
)

#: A name bound by an import outranks a ``def``/``class``, which
#: outranks any other binding of it in the same scope.
_KIND_RANK = {"var": 0, "def": 1, "import": 2}

#: Nodes that open a scope.
_SCOPE_NODES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Lambda,
)


def _builtin(name: str) -> dict:
    return {"k": "builtin", "n": name}


def _body(node: ast.AST) -> list:
    """The statements a scope owns (a lambda's one expression)."""
    body = node.body
    return body if isinstance(body, list) else [body]


def _vocab(desc: dict) -> Optional[str]:
    """A descriptor in :meth:`ModuleContext.infer`'s words."""
    kind = desc["k"]
    if kind in ("builtin", "ref"):
        return _VOCAB.get(desc["n"])
    if kind == "sub":
        return _vocab(desc["base"])
    if kind == "call_of":  # set(...), str(...), repr(...)
        name = desc["f"].get("n", "")
        if name in ("builtins.repr", "builtins.format"):
            return "str"
        if name.startswith("builtins."):
            return _VOCAB.get(name.removeprefix("builtins."))
    if kind == "tuple" and any(
        _vocab(item) in ("str", "bytes", "tuple[str]")
        for item in desc["items"]
    ):
        return "tuple[str]"
    if kind == "any":
        words = {_vocab(member) for member in desc["of"]}
        return words.pop() if len(words) == 1 else None
    return None


def _join(old: dict, new: dict) -> dict:
    """Two bindings of one name: ``any`` of them.  :meth:`infer
    <ModuleContext.infer>` knows its type only where every member
    agrees; the call graph where every member it can resolve agrees
    (a loop variable reusing a name hides no call)."""
    if old == new:
        return old
    members = old["of"] if old["k"] == "any" else [old]
    if new in members:
        return old
    return {"k": "any", "of": members + [new]}


def module_name_for(rel: str) -> str:
    """Dotted module name for a lint-relative posix path.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine`` (a leading
    ``src/`` layout directory is stripped); ``repro/campaign/__init__.py``
    -> ``repro.campaign``.
    """
    parts = list(rel.split("/"))
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = leaf
    return ".".join(part for part in parts if part)


class _Scope:
    """One lexical scope's binding table: local name -> ``(kind,
    descriptor)``, kind ``import`` (a ``ref`` to the absolute dotted
    origin), ``def`` (a ``def``/``class`` statement) or ``var``."""

    __slots__ = ("node", "parent", "bindings")

    def __init__(self, node: ast.AST, parent: Optional["_Scope"]) -> None:
        self.node = node
        self.parent = parent
        self.bindings: Dict[str, Tuple[str, dict]] = {}

    def bind(self, name: str, kind: str, desc: dict) -> None:
        """Record one binding.  A higher-ranked kind wins (``try: import
        x`` / ``except ImportError: x = None`` keeps the import, ``f =
        wraps(f)`` keeps the def), a later import replaces an earlier
        one, and rebinds of one kind join."""
        old = self.bindings.get(name)
        if old is None or _KIND_RANK[kind] > _KIND_RANK[old[0]]:
            self.bindings[name] = (kind, desc)
        elif kind == "import":
            self.bindings[name] = (kind, desc)
        elif kind == old[0]:
            self.bindings[name] = (kind, _join(old[1], desc))

    def mark(self, name: str) -> None:
        """A binding that changes no type (``x += 1``, ``except E as
        x``): unknown if the name has no other."""
        self.bindings.setdefault(name, ("var", UNKNOWN))


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
        #: the file's dotted module name (see :func:`module_name_for`)
        self.module = module_name_for(rel)
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

    # -- the binding table --------------------------------------------------

    def _build_scopes(self) -> None:
        """Bind every name in one pass, outermost scope first: a class
        body is collected where it stands (it runs there), a function
        or lambda body once the scope around it is complete (it runs
        later, so it sees a helper defined below it)."""
        pending: deque[Tuple[ast.AST, _Scope]] = deque(
            [(self.tree, self._module_scope)]
        )
        while pending:
            owner, scope = pending.popleft()
            if owner is not self.tree:
                self._bind_params(owner, scope)
            for node in _body(owner):
                self._visit(node, scope, pending)

    def _visit(
        self,
        node: ast.AST,
        scope: _Scope,
        pending: deque[Tuple[ast.AST, _Scope]],
    ) -> None:
        if not isinstance(node, _SCOPE_NODES):
            self._record(node, scope)
            for child in ast.iter_child_nodes(node):
                self._visit(child, scope, pending)
            return
        inner = _Scope(node, scope)
        body = _body(node)
        for statement in body:
            self._scope_of[id(statement)] = inner
        if not isinstance(node, ast.Lambda):
            ref = UNKNOWN
            if scope is self._module_scope:
                ref = {"k": "ref", "n": self._qualify(node.name)}
            scope.bind(node.name, "def", ref)
        # Decorators, bases, defaults and annotations run outside.
        inside = {id(statement) for statement in body}
        for child in ast.iter_child_nodes(node):
            if id(child) not in inside:
                self._visit(child, scope, pending)
        if isinstance(node, ast.ClassDef):
            for statement in body:
                self._visit(statement, inner, pending)
        else:
            pending.append((node, inner))

    def _qualify(self, name: str) -> str:
        return f"{self.module}.{name}" if self.module else name

    def _bind_params(self, func: ast.AST, scope: _Scope) -> None:
        args = func.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        outer = scope.parent
        for param in params:
            desc = self._lower(param.annotation, outer)
            scope.bind(param.arg, "var", desc)
        owner = outer.node
        if (
            isinstance(owner, ast.ClassDef)
            and outer.parent is self._module_scope
            and params[:1]
            and params[0].arg in ("self", "cls")
        ):
            scope.bindings[params[0].arg] = (
                "var",
                {"k": "ref", "n": self._qualify(owner.name)},
            )

    def _record(self, node: ast.AST, scope: _Scope) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                origin = alias.name if alias.asname else local
                scope.bind(local, "import", {"k": "ref", "n": origin})
        elif isinstance(node, ast.ImportFrom):
            base = self._import_base(node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                if base is None:
                    scope.mark(local)
                else:
                    origin = f"{base}.{alias.name}" if base else alias.name
                    scope.bind(local, "import", {"k": "ref", "n": origin})
        elif isinstance(node, ast.Assign):
            desc = self._type(node.value, scope)
            for target in node.targets:
                self._bind_target(scope, target, desc)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                desc = self._lower(node.annotation, scope)
                if desc == UNKNOWN and node.value is not None:
                    desc = self._type(node.value, scope)
                scope.bind(node.target.id, "var", desc)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                scope.mark(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            self._bind_target(scope, node.target, UNKNOWN)
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None:
                self._bind_target(scope, node.optional_vars, UNKNOWN)
        elif isinstance(node, ast.ExceptHandler):
            if node.name:
                scope.mark(node.name)

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        """The absolute package a ``from`` import reads, or None when a
        relative one climbs above the lint root."""
        if not node.level:
            return node.module or ""
        # Level 1 is "this package": the module itself for a package
        # __init__, the containing package for a plain module.  Each
        # further level ascends one package.
        package = self.module.split(".") if self.module else []
        if not self.rel.endswith("__init__.py") and package:
            package = package[:-1]
        ascend = node.level - 1
        if ascend > len(package):
            return None
        if ascend:
            package = package[: len(package) - ascend]
        if node.module:
            package = package + node.module.split(".")
        return ".".join(package)

    def _bind_target(self, scope: _Scope, target: ast.AST, desc: dict) -> None:
        if isinstance(target, ast.Name):
            scope.bind(target.id, "var", desc)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for index, element in enumerate(target.elts):
                item = UNKNOWN
                if isinstance(element, ast.Name) and desc["k"] == "call_of":
                    item = {"k": "item_of", "f": desc["f"], "i": index}
                self._bind_target(scope, element, item)
        elif isinstance(target, ast.Starred):
            self._bind_target(scope, target.value, UNKNOWN)

    def _scope_for(self, node: ast.AST) -> _Scope:
        current: Optional[ast.AST] = node
        while current is not None:
            scope = self._scope_of.get(id(current))
            if scope is not None:
                return scope
            current = self.parent(current)
        return self._module_scope

    def _owner(self, scope: Optional[_Scope], name: str) -> Optional[_Scope]:
        """The scope whose binding of ``name`` ``scope`` sees, walking
        out like the interpreter: a class body is visible only to the
        statements directly in it."""
        first = True
        while scope is not None:
            if name in scope.bindings and (
                first or not isinstance(scope.node, ast.ClassDef)
            ):
                return scope
            first = False
            scope = scope.parent
        return None

    def _lookup(self, scope: _Scope, name: str):
        """``(kind, descriptor)`` of ``name`` seen from ``scope``."""
        owner = self._owner(scope, name)
        return None if owner is None else owner.bindings[name]

    # -- the typer ----------------------------------------------------------

    def _name_type(self, name: str, scope: _Scope) -> dict:
        found = self._lookup(scope, name)
        if found is not None:
            return found[1]
        if name in _BUILTIN_NAMES:
            return {"k": "ref", "n": f"builtins.{name}"}
        return UNKNOWN

    def _type(self, node: Optional[ast.AST], scope: _Scope) -> dict:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Constant):
            value = node.value
            return _builtin("None" if value is None else type(value).__name__)
        if isinstance(node, ast.JoinedStr):
            return _builtin("str")
        if isinstance(node, ast.Tuple):
            items = [self._type(e, scope) for e in node.elts]
            return {"k": "tuple", "items": items}
        if isinstance(node, (ast.List, ast.Set)):
            base = "list" if isinstance(node, ast.List) else "set"
            items = [self._type(e, scope) for e in node.elts]
            return {"k": "sub", "base": _builtin(base), "args": items}
        if isinstance(node, ast.SetComp):
            return _builtin("set")
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return _builtin("dict")
        if isinstance(node, ast.Name):
            return self._name_type(node.id, scope)
        if isinstance(node, ast.Attribute):
            base = self._type(node.value, scope)
            if base["k"] == "ref":
                return {"k": "ref", "n": f"{base['n']}.{node.attr}"}
            if base["k"] == "?":
                return UNKNOWN
            return {"k": "attr_of", "base": base, "attr": node.attr}
        if isinstance(node, ast.Call):
            return self._call_type(node, scope)
        if isinstance(node, ast.Subscript):
            base = self._type(node.value, scope)
            if base["k"] == "?":
                return UNKNOWN
            return {"k": "elem_of", "base": base}
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self._type(node.left, scope)
            if _vocab(left) in ("str", "bytes"):
                return left
        return UNKNOWN

    def _call_type(self, node: ast.Call, scope: _Scope) -> dict:
        callee = self._callee(node, scope)
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "encode":
                return _builtin("bytes")
            if func.attr in _STR_METHODS:
                receiver = _vocab(self._type(func.value, scope))
                if receiver == ("bytes" if func.attr == "decode" else "str"):
                    return _builtin("str")
        if callee is None:
            return UNKNOWN
        return {"k": "call_of", "f": callee}

    def _callee(self, node: ast.Call, scope: _Scope) -> Optional[dict]:
        func = node.func
        if isinstance(func, ast.Name):
            desc = self._name_type(func.id, scope)
            if desc["k"] != "ref":
                return None  # calling a local value: unknown
            return {"t": "ref", "n": desc["n"]}
        if isinstance(func, ast.Attribute):
            recv = self._type(func.value, scope)
            if recv["k"] == "ref":
                return {"t": "ref", "n": f"{recv['n']}.{func.attr}"}
            if recv["k"] == "?":
                return None
            return {"t": "method", "recv": recv, "attr": func.attr}
        return None

    def _lower(self, node: Optional[ast.AST], scope: _Scope) -> dict:
        """An annotation as a descriptor."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval").body
                except SyntaxError:
                    return UNKNOWN
                return self._lower(inner, scope)
            return _builtin("None") if node.value is None else UNKNOWN
        if isinstance(node, (ast.Name, ast.Attribute)):
            desc = self._type(node, scope)
            if desc["k"] != "ref":
                return UNKNOWN
            if desc["n"].startswith("builtins."):  # an instance of it
                return _builtin(desc["n"].removeprefix("builtins."))
            return desc
        if isinstance(node, ast.Subscript):
            base = node.value
            name = getattr(base, "id", getattr(base, "attr", ""))
            inner = node.slice
            args = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            if name in _TRANSPARENT and args:
                return self._lower(args[0], scope)
            return {
                "k": "sub",
                "base": self._lower(base, scope),
                "args": [self._lower(arg, scope) for arg in args],
            }
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # PEP 604 unions: keep the first non-None arm (Optional-style).
            left = self._lower(node.left, scope)
            if left.get("n") != "None":
                return left
            return self._lower(node.right, scope)
        if isinstance(node, ast.Tuple):
            items = [self._lower(e, scope) for e in node.elts]
            return {"k": "tuple", "items": items}
        return UNKNOWN

    # -- what the rules ask -------------------------------------------------

    def binding(self, node: ast.Name) -> Optional[Tuple[str, dict]]:
        """``(kind, descriptor)`` of a name where it stands, or None
        when nothing in the file binds it."""
        return self._lookup(self._scope_for(node), node.id)

    def binding_scope(self, node: ast.Name) -> Optional[ast.AST]:
        """The module, class, function or lambda whose binding of a
        name is the one read where it stands (None when unbound)."""
        owner = self._owner(self._scope_for(node), node.id)
        return None if owner is None else owner.node

    def aliases(self) -> Dict[str, str]:
        """The module scope's imports: local name -> dotted origin."""
        return {
            name: desc["n"]
            for name, (kind, desc) in self._module_scope.bindings.items()
            if kind == "import"
        }

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted origin of a name/attribute expression.

        ``ri`` after ``from random import randint as ri`` resolves to
        ``"random.randint"``; an unshadowed builtin name resolves to
        ``"builtins.<name>"``; anything else bound in the file is
        ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        found = self.binding(node)
        if found is None:
            if node.id not in _BUILTIN_NAMES:
                return None
            base = f"builtins.{node.id}"
        elif found[0] == "import":
            base = found[1]["n"]
        else:
            return None
        return ".".join([base] + list(reversed(parts)))

    def expr_type(self, node: ast.AST) -> dict:
        """The descriptor of an expression where it stands."""
        return self._type(node, self._scope_for(node))

    def callee(self, node: ast.Call) -> Optional[dict]:
        """A call's target: ``{"t": "ref", "n": dotted}`` for a name or
        module-attribute callee, ``{"t": "method", "recv", "attr"}`` on
        a typed receiver, None when unknown."""
        return self._callee(node, self._scope_for(node))

    def annotation(self, node: Optional[ast.AST]) -> dict:
        """An annotation (or decorator, base, registry entry) lowered
        to a descriptor in the scope it is evaluated in."""
        if node is None:
            return UNKNOWN
        return self._lower(node, self._scope_for(node))

    def infer(self, node: Optional[ast.AST]) -> Optional[str]:
        """Cheap static type: ``"str"``/``"bytes"``/``"set"``/``"dict"``,
        or ``"tuple[str]"`` for a tuple with a provably textual element
        (tuple hashes mix the element hashes, so one salted element
        salts the whole tuple).

        ``None`` means unknown — rules must treat unknown as innocent.
        """
        if node is None:
            return None
        return _vocab(self.expr_type(node))

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
