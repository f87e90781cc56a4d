"""Project-wide symbol table: per-module semantic summaries.

The whole-program passes (call-graph taint, process-boundary
contracts, Protocol conformance) need facts no single
:class:`~repro.lint.engine.ModuleContext` can provide: what a dotted
name means *in another module*, which class a method lives on, which
classes structurally implement a Protocol.  This module extracts a
plain-data :class:`ModuleSummary` per file — functions with
their call sites, local type bindings, impure sites, classes with
bases/fields/methods, resolved import aliases (including relative
imports, which the per-file rules ignore) — and assembles them into a
:class:`ProjectIndex` that resolves references *across* modules,
following re-export chains through package ``__init__`` files.

Type descriptors — the small language local bindings and annotations
are lowered into (plain ``{"k": ...}`` dicts):

- ``ref``      a name resolved through imports to a dotted path
- ``builtin``  a builtin scalar/container name (``str``, ``dict``...)
- ``sub``      a subscripted annotation (``Dict[int, Router]``)
- ``tuple``    a tuple-of-types annotation element
- ``call_of``  "instance of class F / return value of function F"
- ``item_of``  element ``i`` of ``call_of``'s tuple result
- ``attr_of``  attribute ``a`` of a value of some other descriptor
- ``elem_of``  an element drawn out of a container descriptor
- ``?``        unknown (rules must treat unknown as innocent)
"""

from __future__ import annotations

import ast
import builtins as _builtins
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import ModuleContext

__all__ = [
    "ModuleSummary",
    "ProjectIndex",
    "module_name_for",
    "summarize_module",
    "unit_typer",
    "UNKNOWN",
]

UNKNOWN = {"k": "?"}

#: Names treated as registries of boundary-crossing types (CON001).
_REGISTRY_NAMES = frozenset({"TRANSFERABLE_TYPES"})

_BUILTIN_TYPES = frozenset(
    {
        "str", "bytes", "int", "float", "bool", "complex", "None",
        "dict", "list", "tuple", "set", "frozenset", "object",
    }
)

#: Annotation wrappers that do not change the transferable/base type.
_TRANSPARENT = frozenset({"Optional", "Final", "Annotated", "ClassVar"})


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


def _is_package_init(rel: str) -> bool:
    return rel.endswith("__init__.py")


class _AliasCollector(ast.NodeVisitor):
    """Every import alias in the file, resolved to an absolute dotted
    origin (relative imports are resolved against the module's own
    dotted name).  Function-level imports are merged into one map —
    the lazy-import idiom means they matter, and a collision between
    two scopes' aliases is vanishingly rare in practice."""

    def __init__(self, module: str, is_init: bool) -> None:
        self.module = module
        self.is_init = is_init
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            origin = alias.name if alias.asname else local
            self.aliases[local] = origin

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._base_for(node)
        if base is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{base}.{alias.name}" if base else (
                alias.name
            )

    def _base_for(self, node: ast.ImportFrom) -> Optional[str]:
        if not node.level:
            return node.module or ""
        # Level 1 is "this package": the module itself for a package
        # __init__, the containing package for a plain module.  Each
        # further level ascends one package.
        package = self.module.split(".") if self.module else []
        if not self.is_init and package:
            package = package[:-1]
        ascend = node.level - 1
        if ascend > len(package):
            return None
        if ascend:
            package = package[: len(package) - ascend]
        if node.module:
            package = package + node.module.split(".")
        return ".".join(package)


def _annotation_descriptor(
    node: Optional[ast.AST], resolve_name
) -> dict:
    """Lower an annotation expression to a type descriptor."""
    if node is None:
        return UNKNOWN
    if isinstance(node, ast.Constant):
        if node.value is None:
            return {"k": "builtin", "n": "None"}
        if isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return UNKNOWN
            return _annotation_descriptor(inner, resolve_name)
        return UNKNOWN
    if isinstance(node, ast.Name):
        if node.id in _BUILTIN_TYPES:
            return {"k": "builtin", "n": node.id}
        dotted = resolve_name(node.id)
        if dotted is None:
            return UNKNOWN
        return {"k": "ref", "n": dotted}
    if isinstance(node, ast.Attribute):
        parts: List[str] = []
        current: ast.AST = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return UNKNOWN
        dotted = resolve_name(current.id)
        if dotted is None:
            return UNKNOWN
        return {"k": "ref", "n": ".".join([dotted] + list(reversed(parts)))}
    if isinstance(node, ast.Subscript):
        base = node.value
        name = base.id if isinstance(base, ast.Name) else (
            base.attr if isinstance(base, ast.Attribute) else ""
        )
        inner = node.slice
        args = list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
        if name in _TRANSPARENT:
            return _annotation_descriptor(args[0], resolve_name)
        lowered = [
            _annotation_descriptor(arg, resolve_name) for arg in args
        ]
        base_desc = _annotation_descriptor(base, resolve_name)
        return {"k": "sub", "base": base_desc, "args": lowered}
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # PEP 604 unions: keep the first non-None arm (Optional-style).
        left = _annotation_descriptor(node.left, resolve_name)
        if left.get("n") != "None":
            return left
        return _annotation_descriptor(node.right, resolve_name)
    if isinstance(node, ast.Tuple):
        return {
            "k": "tuple",
            "items": [
                _annotation_descriptor(e, resolve_name) for e in node.elts
            ],
        }
    return UNKNOWN


class _UnitExtractor:
    """Calls, function references, and local type bindings for one
    function unit (a module-level def or a method; nested defs and
    lambdas fold into their enclosing unit — a closure's hazards are
    the enclosing function's hazards)."""

    def __init__(
        self,
        summarizer: "_Summarizer",
        func: ast.AST,
        cls: Optional[str],
    ) -> None:
        self.s = summarizer
        self.func = func
        self.cls = cls
        self.bindings: Dict[str, dict] = {}
        self.calls: List[dict] = []
        self._call_funcs: set = set()

    def extract(self) -> None:
        self._bind_params()
        for node in self._walk_unit(self.func):
            if isinstance(node, ast.Call):
                self._record_call(node)
            elif isinstance(node, ast.Assign):
                self._record_assign(node)
            elif isinstance(node, ast.AnnAssign):
                self._record_annassign(node)
        for node in self._walk_unit(self.func):
            if isinstance(node, (ast.Name, ast.Attribute)):
                self._record_ref(node)

    # -- structure ----------------------------------------------------------

    def _walk_unit(self, root: ast.AST):
        """Pre-order walk of the unit's body in source order (a binding
        must be recorded before the statements that use it are typed),
        without descending into nested class definitions (their methods
        are separate units)."""
        stack = list(ast.iter_child_nodes(root))
        stack.reverse()
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ClassDef):
                continue
            yield node
            children = list(ast.iter_child_nodes(node))
            children.reverse()
            stack.extend(children)

    # -- bindings -----------------------------------------------------------

    def _bind_params(self) -> None:
        args = self.func.args
        params = list(args.posonlyargs) + list(args.args)
        params += list(args.kwonlyargs)
        first = params[0].arg if params else None
        for param in params:
            desc = _annotation_descriptor(
                param.annotation, self.s.resolve_name
            )
            self.bindings[param.arg] = desc
        if self.cls is not None and first in ("self", "cls"):
            self.bindings[first] = {
                "k": "ref",
                "n": f"{self.s.module}.{self.cls}",
            }

    def _bind(self, name: str, desc: dict) -> None:
        if name in self.bindings and self.bindings[name] != desc:
            self.bindings[name] = dict(UNKNOWN)
        else:
            self.bindings[name] = desc

    def _record_assign(self, node: ast.Assign) -> None:
        desc = self.expr_type(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, desc)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for index, element in enumerate(target.elts):
                    if not isinstance(element, ast.Name):
                        continue
                    if desc.get("k") == "call_of":
                        self._bind(
                            element.id,
                            {"k": "item_of", "f": desc["f"], "i": index},
                        )
                    else:
                        self._bind(element.id, dict(UNKNOWN))

    def _record_annassign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            desc = _annotation_descriptor(
                node.annotation, self.s.resolve_name
            )
            self._bind(node.target.id, desc)

    # -- expression typing --------------------------------------------------

    def expr_type(self, node: Optional[ast.AST]) -> dict:
        if node is None:
            return dict(UNKNOWN)
        if isinstance(node, ast.Constant):
            value = node.value
            if value is None:
                return {"k": "builtin", "n": "None"}
            name = type(value).__name__
            if name in _BUILTIN_TYPES:
                return {"k": "builtin", "n": name}
            return dict(UNKNOWN)
        if isinstance(node, ast.JoinedStr):
            return {"k": "builtin", "n": "str"}
        if isinstance(node, ast.Tuple):
            return {
                "k": "tuple",
                "items": [self.expr_type(e) for e in node.elts],
            }
        if isinstance(node, (ast.List, ast.Set)):
            base = "list" if isinstance(node, ast.List) else "set"
            return {
                "k": "sub",
                "base": {"k": "builtin", "n": base},
                "args": [self.expr_type(e) for e in node.elts],
            }
        if isinstance(node, ast.Name):
            bound = self.bindings.get(node.id)
            if bound is not None:
                return dict(bound)
            dotted = self.s.resolve_name(node.id)
            if dotted is not None:
                return {"k": "ref", "n": dotted}
            return dict(UNKNOWN)
        if isinstance(node, ast.Attribute):
            base = self.expr_type(node.value)
            if base.get("k") == "ref":
                return {"k": "ref", "n": f"{base['n']}.{node.attr}"}
            if base.get("k") == "?":
                return dict(UNKNOWN)
            return {"k": "attr_of", "base": base, "attr": node.attr}
        if isinstance(node, ast.Call):
            func_desc = self.callee_descriptor(node)
            if func_desc is None:
                return dict(UNKNOWN)
            return {"k": "call_of", "f": func_desc}
        if isinstance(node, ast.Subscript):
            base = self.expr_type(node.value)
            if base.get("k") == "?":
                return dict(UNKNOWN)
            return {"k": "elem_of", "base": base}
        return dict(UNKNOWN)

    # -- calls and references -----------------------------------------------

    def callee_descriptor(self, node: ast.Call) -> Optional[dict]:
        """A target descriptor for a call: ``{"t": "ref", ...}`` for a
        name/module-attribute callee, ``{"t": "method", ...}`` for an
        attribute call on a typed receiver, None when unknown."""
        func = node.func
        if isinstance(func, ast.Name):
            bound = self.bindings.get(func.id)
            if bound is not None and bound.get("k") != "ref":
                return None  # calling a local value: unknown
            dotted = (
                bound["n"] if bound is not None
                else self.s.resolve_name(func.id)
            )
            if dotted is None:
                return None
            return {"t": "ref", "n": dotted}
        if isinstance(func, ast.Attribute):
            recv = self.expr_type(func.value)
            if recv.get("k") == "ref":
                return {"t": "ref", "n": f"{recv['n']}.{func.attr}"}
            if recv.get("k") == "?":
                return None
            return {"t": "method", "recv": recv, "attr": func.attr}
        return None

    def _record_call(self, node: ast.Call) -> None:
        self._call_funcs.add(id(node.func))
        target = self.callee_descriptor(node)
        if target is None:
            return
        self.calls.append(
            {"kind": "call", "line": node.lineno, "target": target}
        )

    def _record_ref(self, node: ast.AST) -> None:
        """A bare reference to a known function (callback, pool
        target, decorator): conservatively an edge — a function whose
        reference escapes may be called."""
        if id(node) in self._call_funcs:
            return
        if isinstance(node, ast.Name):
            if node.id in self.bindings:
                return
            dotted = self.s.resolve_name(node.id)
        elif isinstance(node, ast.Attribute):
            desc = self.expr_type(node)
            dotted = desc.get("n") if desc.get("k") == "ref" else None
        else:
            return
        if dotted is None or dotted.startswith("builtins."):
            return
        self.calls.append(
            {
                "kind": "ref",
                "line": getattr(node, "lineno", 0),
                "target": {"t": "ref", "n": dotted},
            }
        )


class _Summarizer:
    """Drives extraction over one :class:`ModuleContext`."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.module = module_name_for(ctx.rel)
        collector = _AliasCollector(
            self.module, _is_package_init(ctx.rel)
        )
        collector.visit(ctx.tree)
        self.aliases = collector.aliases
        self.toplevel: Dict[str, str] = {}  # name -> "func" | "class"
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.toplevel[node.name] = "func"
            elif isinstance(node, ast.ClassDef):
                self.toplevel[node.name] = "class"

    def resolve_name(self, name: str) -> Optional[str]:
        """Absolute dotted origin of a module-visible name."""
        if name in self.aliases:
            return self.aliases[name]
        if name in self.toplevel:
            return f"{self.module}.{name}" if self.module else name
        if name in _BUILTIN_TYPES or hasattr(_builtins, name):
            return f"builtins.{name}"
        return None

    # -- functions ----------------------------------------------------------

    def _function_summary(
        self, node: ast.AST, cls: Optional[str]
    ) -> dict:
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        names = [a.arg for a in positional]
        if cls is not None and names and names[0] in ("self", "cls"):
            names = names[1:]
            positional = positional[1:]
        defaults = len(args.defaults)
        decorators = []
        for decorator in node.decorator_list:
            desc = _annotation_descriptor(decorator, self.resolve_name)
            if desc.get("k") == "ref":
                decorators.append(desc["n"])
            elif isinstance(decorator, ast.Name):
                decorators.append(decorator.id)
        is_property = any(
            d in ("builtins.property", "property") or
            d.endswith(".property") or d.endswith(".cached_property")
            for d in decorators
        )
        unit = _UnitExtractor(self, node, cls)
        unit.extract()
        qual = f"{cls}.{node.name}" if cls else node.name
        return {
            "name": node.name,
            "qual": qual,
            "cls": cls,
            "line": node.lineno,
            "params": names,
            "required": max(0, len(names) - defaults),
            "vararg": args.vararg is not None,
            "kwonly": [a.arg for a in args.kwonlyargs],
            "kwarg": args.kwarg is not None,
            "property": is_property,
            "decorators": decorators,
            "returns": _annotation_descriptor(
                node.returns, self.resolve_name
            ),
            "calls": unit.calls,
            "impure": [],  # filled in by summarize_module
        }

    # -- classes ------------------------------------------------------------

    def _class_summary(self, node: ast.ClassDef) -> dict:
        bases = []
        is_protocol = False
        for base in node.bases:
            desc = _annotation_descriptor(base, self.resolve_name)
            if desc.get("k") == "sub":
                desc = desc["base"]
            if desc.get("k") == "ref":
                bases.append(desc["n"])
                tail = desc["n"].rsplit(".", 1)[-1]
                if tail == "Protocol":
                    is_protocol = True
            elif isinstance(base, ast.Name):
                bases.append(base.id)
                if base.id == "Protocol":
                    is_protocol = True
        methods = {}
        fields = {}
        for statement in node.body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                methods[statement.name] = self._function_summary(
                    statement, node.name
                )
            elif isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                fields[statement.target.id] = _annotation_descriptor(
                    statement.annotation, self.resolve_name
                )
        return {
            "name": node.name,
            "line": node.lineno,
            "bases": bases,
            "protocol": is_protocol,
            "methods": methods,
            "fields": fields,
        }

    # -- registries ---------------------------------------------------------

    def _registries(self) -> Dict[str, List[str]]:
        found: Dict[str, List[str]] = {}
        for node in self.ctx.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id not in _REGISTRY_NAMES:
                    continue
                names: List[str] = []
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    for element in node.value.elts:
                        desc = _annotation_descriptor(
                            element, self.resolve_name
                        )
                        if desc.get("k") == "ref":
                            names.append(desc["n"])
                found[target.id] = names
        return found


class ModuleSummary:
    """One file's contribution to the project index (plain data)."""

    __slots__ = ("rel", "module", "payload")

    def __init__(self, rel: str, module: str, payload: dict) -> None:
        self.rel = rel
        self.module = module
        self.payload = payload

    @property
    def functions(self) -> Dict[str, dict]:
        return self.payload["functions"]

    @property
    def classes(self) -> Dict[str, dict]:
        return self.payload["classes"]

    @property
    def aliases(self) -> Dict[str, str]:
        return self.payload["aliases"]

    @property
    def registries(self) -> Dict[str, List[str]]:
        return self.payload["registries"]


def summarize_module(ctx: ModuleContext) -> ModuleSummary:
    """Extract the semantic summary of one parsed file."""
    summarizer = _Summarizer(ctx)
    functions: Dict[str, dict] = {}
    classes: Dict[str, dict] = {}
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = summarizer._function_summary(
                node, None
            )
        elif isinstance(node, ast.ClassDef):
            classes[node.name] = summarizer._class_summary(node)
    payload = {
        "aliases": summarizer.aliases,
        "functions": functions,
        "classes": classes,
        "registries": summarizer._registries(),
    }
    summary = ModuleSummary(ctx.rel, summarizer.module, payload)
    _attach_impure_sites(ctx, summary)
    return summary


def _attach_impure_sites(ctx: ModuleContext, summary: ModuleSummary) -> None:
    """Tag each function unit with the impure sites the taint pass
    treats as sources (see :mod:`repro.lint.semantic.taint`).

    The sites are the ones the per-file determinism rules report, so
    the transitive pass flags exactly what they would — including
    sites whose *per-file* finding is pragma-suppressed: a ``DET002`` pragma
    claims "display-only", and reachability from a digest is precisely
    the evidence that claim needs re-review, so only the matching
    ``DET1xx`` pragma silences the interprocedural finding.
    """
    from .taint import direct_impure_sites

    spans: List[Tuple[int, int, str, Optional[str]]] = []

    def record_span(node: ast.AST, cls: Optional[str]) -> None:
        end = getattr(node, "end_lineno", node.lineno)
        spans.append((node.lineno, end, node.name, cls))

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            record_span(node, None)
        elif isinstance(node, ast.ClassDef):
            for statement in node.body:
                if isinstance(
                    statement, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    record_span(statement, node.name)

    def owner_of(line: int) -> Optional[dict]:
        best = None
        for lo, hi, name, cls in spans:
            if lo <= line <= hi:
                if best is None or lo > best[0]:
                    best = (lo, name, cls)
        if best is None:
            return None
        _, name, cls = best
        if cls is None:
            return summary.functions.get(name)
        klass = summary.classes.get(cls)
        return klass["methods"].get(name) if klass else None

    for site in direct_impure_sites(ctx):
        owner = owner_of(site["line"])
        if owner is not None:
            owner["impure"].append(site)


def unit_typer(
    ctx: ModuleContext,
    func: ast.AST,
    cls_name: Optional[str] = None,
) -> "_UnitExtractor":
    """A live expression typer scoped to one function unit.

    Program rules that must type arbitrary expressions in a file's
    live AST (e.g. CON001 on ``conn.send(...)`` arguments) get the same
    binding/descriptor machinery the summaries are built from; feed
    the returned object's ``expr_type(node)`` any expression inside
    ``func``.
    """
    summarizer = _Summarizer(ctx)
    unit = _UnitExtractor(summarizer, func, cls_name)
    unit.extract()
    return unit


class ProjectIndex:
    """Cross-module resolution over a set of summaries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.summaries = sorted(summaries, key=lambda s: s.rel)
        self.by_module: Dict[str, ModuleSummary] = {}
        for summary in self.summaries:
            self.by_module[summary.module] = summary

    # -- reference resolution ----------------------------------------------

    def resolve_ref(
        self, dotted: str, _depth: int = 0
    ) -> Optional[Tuple[str, str, dict]]:
        """Resolve a dotted reference to a project symbol.

        Returns ``(kind, fqn, payload)`` with kind ``"func"`` or
        ``"class"`` (fqn is ``module.qualname``), following re-export
        aliases through package ``__init__`` modules; None when the
        reference leaves the project (stdlib, third-party) or cannot
        be resolved.
        """
        if _depth > 8 or not dotted or dotted.startswith("builtins."):
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.by_module.get(module)
            if summary is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in summary.functions and len(rest) == 1:
                return (
                    "func",
                    f"{module}.{head}",
                    summary.functions[head],
                )
            if head in summary.classes:
                klass = summary.classes[head]
                if len(rest) == 1:
                    return ("class", f"{module}.{head}", klass)
                if len(rest) == 2 and rest[1] in klass["methods"]:
                    return (
                        "func",
                        f"{module}.{head}.{rest[1]}",
                        klass["methods"][rest[1]],
                    )
                return None
            if head in summary.aliases:
                target = ".".join([summary.aliases[head]] + rest[1:])
                return self.resolve_ref(target, _depth + 1)
            # The module exists but does not define the name: it may
            # be a submodule reference (repro.sim.engine.Engine hits
            # module repro.sim first when both exist).
            continue
        return None

    # -- classes ------------------------------------------------------------

    def class_summary(self, fqn: str) -> Optional[dict]:
        resolved = self.resolve_ref(fqn)
        if resolved is not None and resolved[0] == "class":
            return resolved[2]
        return None

    def mro(self, fqn: str, _seen=None) -> List[str]:
        """Conservative linearization: the class then its resolvable
        project bases, depth-first, cycles guarded."""
        seen = _seen if _seen is not None else set()
        if fqn in seen:
            return []
        seen.add(fqn)
        resolved = self.resolve_ref(fqn)
        if resolved is None or resolved[0] != "class":
            return []
        _, canonical, klass = resolved
        order = [canonical]
        module = canonical.rsplit(".", 1)[0]
        summary = self.by_module.get(module)
        for base in klass["bases"]:
            dotted = base
            if summary is not None and "." not in base:
                local = summary.aliases.get(base)
                if local is not None:
                    dotted = local
                elif base in summary.classes:
                    dotted = f"{module}.{base}"
            order.extend(self.mro(dotted, seen))
        return order

    def method_lookup(
        self, class_fqn: str, attr: str
    ) -> Optional[Tuple[str, dict]]:
        """``(method fqn, summary)`` through the conservative MRO."""
        for fqn in self.mro(class_fqn):
            klass = self.class_summary(fqn)
            if klass is not None and attr in klass["methods"]:
                return (f"{fqn}.{attr}", klass["methods"][attr])
        return None

    def field_annotation(
        self, class_fqn: str, attr: str
    ) -> Optional[dict]:
        for fqn in self.mro(class_fqn):
            klass = self.class_summary(fqn)
            if klass is not None and attr in klass["fields"]:
                return klass["fields"][attr]
        return None

    # -- protocols ----------------------------------------------------------

    def implementers(self, proto_fqn: str) -> List[str]:
        """Classes structurally implementing every method of the
        protocol (used for conservative call dispatch)."""
        proto = self.class_summary(proto_fqn)
        if proto is None:
            return []
        needed = {
            name for name in proto["methods"]
            if not name.startswith("_")
        }
        if not needed:
            return []
        found = []
        for summary in self.summaries:
            for name in sorted(summary.classes):
                klass = summary.classes[name]
                if klass["protocol"]:
                    continue
                fqn = f"{summary.module}.{name}"
                have = set()
                for cls_fqn in self.mro(fqn):
                    body = self.class_summary(cls_fqn)
                    if body is not None:
                        have.update(body["methods"])
                if needed <= have:
                    found.append(fqn)
        return found

    # -- type descriptor resolution -----------------------------------------

    def concrete_type(
        self, desc: Optional[dict], _depth: int = 0
    ) -> Optional[dict]:
        """Normalize a descriptor to one of
        ``{"k": "class", "fqn": ...}``, ``{"k": "builtin", "n": ...}``,
        ``{"k": "container", "n": ..., "args": [...]}`` or None
        (unknown)."""
        if desc is None or _depth > 12:
            return None
        kind = desc.get("k")
        if kind == "builtin":
            return {"k": "builtin", "n": desc["n"]}
        if kind == "tuple":
            return {
                "k": "container",
                "n": "tuple",
                "args": [
                    self.concrete_type(item, _depth + 1)
                    for item in desc.get("items", [])
                ],
            }
        if kind == "ref":
            resolved = self.resolve_ref(desc["n"])
            if resolved is None:
                tail = desc["n"].rsplit(".", 1)[-1]
                if desc["n"].startswith("builtins."):
                    return {"k": "builtin", "n": tail}
                if desc["n"].startswith("typing."):
                    return self._typing_container(tail, [])
                return None
            kind2, fqn, _ = resolved
            if kind2 == "class":
                return {"k": "class", "fqn": fqn}
            return None
        if kind == "sub":
            base = desc.get("base", UNKNOWN)
            name = None
            if base.get("k") == "builtin":
                name = base["n"]
            elif base.get("k") == "ref":
                name = base["n"].rsplit(".", 1)[-1]
            args = [
                self.concrete_type(arg, _depth + 1)
                for arg in desc.get("args", [])
            ]
            if name is None:
                return None
            container = self._typing_container(name, args)
            if container is not None:
                return container
            # Subscripted project class (generics): the class itself.
            return self.concrete_type(base, _depth + 1)
        if kind == "call_of":
            target = desc.get("f", {})
            if target.get("t") == "ref" or target.get("k") == "ref":
                dotted = target.get("n")
                resolved = self.resolve_ref(dotted) if dotted else None
                if resolved is None:
                    return None
                kind2, fqn, payload = resolved
                if kind2 == "class":
                    return {"k": "class", "fqn": fqn}
                return self.concrete_type(
                    payload.get("returns"), _depth + 1
                )
            if target.get("t") == "method":
                method = self._method_from_target(target, _depth)
                if method is None:
                    return None
                return self.concrete_type(
                    method[1].get("returns"), _depth + 1
                )
            return None
        if kind == "item_of":
            call = self.concrete_type(
                {"k": "call_of", "f": desc["f"]}, _depth + 1
            )
            if (
                call is not None
                and call["k"] == "container"
                and call["n"] == "tuple"
            ):
                index = desc.get("i", 0)
                args = call.get("args", [])
                if 0 <= index < len(args):
                    return args[index]
            return None
        if kind == "attr_of":
            base = self.concrete_type(desc.get("base"), _depth + 1)
            if base is None or base["k"] != "class":
                return None
            field = self.field_annotation(base["fqn"], desc["attr"])
            if field is not None:
                return self.concrete_type(field, _depth + 1)
            method = self.method_lookup(base["fqn"], desc["attr"])
            if method is not None and method[1].get("property"):
                return self.concrete_type(
                    method[1].get("returns"), _depth + 1
                )
            return None
        if kind == "elem_of":
            base = self.concrete_type(desc.get("base"), _depth + 1)
            if base is not None and base["k"] == "container":
                args = base.get("args", [])
                if args:
                    return args[-1]
            return None
        return None

    def _method_from_target(
        self, target: dict, _depth: int
    ) -> Optional[Tuple[str, dict]]:
        recv = self.concrete_type(target.get("recv"), _depth + 1)
        if recv is None or recv["k"] != "class":
            return None
        return self.method_lookup(recv["fqn"], target["attr"])

    def _typing_container(self, name: str, args) -> Optional[dict]:
        lowered = name.lower()
        mapping = {
            "list": "list", "sequence": "list", "iterable": "list",
            "iterator": "list", "tuple": "tuple", "dict": "dict",
            "mapping": "dict", "mutablemapping": "dict", "set": "set",
            "frozenset": "set",
        }
        if lowered in mapping:
            return {
                "k": "container",
                "n": mapping[lowered],
                "args": list(args),
            }
        return None
