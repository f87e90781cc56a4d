"""Project-wide symbol table: per-module semantic summaries.

The whole-program passes (call-graph taint, process-boundary
contracts, Protocol conformance) need facts no single
:class:`~repro.lint.engine.ModuleContext` can provide: what a dotted
name means *in another module*, which class a method lives on, which
classes structurally implement a Protocol.  This module extracts a
plain-data :class:`ModuleSummary` per file — functions with their call
sites and impure sites, classes with bases/fields/methods, the module
scope's import aliases — and assembles them into a
:class:`ProjectIndex` that resolves references *across* modules,
following re-export chains through package ``__init__`` files.  Every
name in a summary is resolved by the file's one scoped binding table,
:class:`~repro.lint.engine.ModuleContext`, the same one the per-file
rules read.

Type descriptors — the small language bindings, annotations and
expressions are lowered into (plain ``{"k": ...}`` dicts):

- ``ref``      a name resolved through imports to a dotted path
- ``builtin``  a builtin scalar/container name (``str``, ``dict``...)
- ``sub``      a subscripted annotation (``Dict[int, Router]``)
- ``tuple``    a tuple-of-types annotation element
- ``call_of``  "instance of class F / return value of function F"
- ``item_of``  element ``i`` of ``call_of``'s tuple result
- ``attr_of``  attribute ``a`` of a value of some other descriptor
- ``elem_of``  an element drawn out of a container descriptor
- ``any``      one name bound several ways; a reader trusts it only
               where the members agree
- ``?``        unknown (rules must treat unknown as innocent)
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine import UNKNOWN, ModuleContext, module_name_for

__all__ = [
    "ModuleSummary",
    "ProjectIndex",
    "module_name_for",
    "summarize_module",
    "UNKNOWN",
]

#: An ``x = None`` reset names no class (see ``concrete_type``).
_NONE = {"k": "builtin", "n": "None"}

#: Names treated as registries of boundary-crossing types (CON001).
_REGISTRY_NAMES = frozenset({"TRANSFERABLE_TYPES"})


def _walk_unit(root: ast.AST):
    """Every node of a unit's body, without descending into nested
    class definitions (their methods are not this unit's)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        if not isinstance(node, ast.ClassDef):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _unit_calls(ctx: ModuleContext, func: ast.AST) -> List[dict]:
    """Calls and function references of one function unit (a
    module-level def or a method; nested defs and lambdas fold into
    their enclosing unit — a closure's hazards are the enclosing
    function's hazards), each typed in the scope it stands in.

    A bare reference to a known function (callback, pool target,
    decorator) is conservatively an edge: a function whose reference
    escapes may be called."""
    nodes = list(_walk_unit(func))
    calls: List[dict] = []
    call_funcs = set()
    for node in nodes:
        if isinstance(node, ast.Call):
            call_funcs.add(id(node.func))
            target = ctx.callee(node)
            if target is not None:
                calls.append(
                    {"kind": "call", "line": node.lineno, "target": target}
                )
    for node in nodes:
        if id(node) in call_funcs:
            continue
        if isinstance(node, ast.Name):
            found = ctx.binding(node)
            if found is None or found[0] == "var":
                continue
            desc = found[1]
        elif isinstance(node, ast.Attribute):
            desc = ctx.expr_type(node)
        else:
            continue
        if desc["k"] == "ref" and not desc["n"].startswith("builtins."):
            calls.append(
                {
                    "kind": "ref",
                    "line": node.lineno,
                    "target": {"t": "ref", "n": desc["n"]},
                }
            )
    return calls


def _function_summary(
    ctx: ModuleContext, node: ast.AST, cls: Optional[str]
) -> dict:
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    names = [a.arg for a in positional]
    if cls is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    decorators = []
    for decorator in node.decorator_list:
        desc = ctx.annotation(decorator)
        if desc["k"] == "ref":
            decorators.append(desc["n"])
        elif isinstance(decorator, ast.Name):
            decorators.append(decorator.id)
    is_property = any(
        d in ("builtins.property", "property")
        or d.endswith(".property")
        or d.endswith(".cached_property")
        for d in decorators
    )
    qual = f"{cls}.{node.name}" if cls else node.name
    return {
        "name": node.name,
        "qual": qual,
        "cls": cls,
        "line": node.lineno,
        "params": names,
        "required": max(0, len(names) - len(args.defaults)),
        "vararg": args.vararg is not None,
        "kwonly": [a.arg for a in args.kwonlyargs],
        "kwarg": args.kwarg is not None,
        "property": is_property,
        "decorators": decorators,
        "returns": ctx.annotation(node.returns),
        "calls": _unit_calls(ctx, node),
        "impure": [],  # filled in by summarize_module
    }


def _class_summary(ctx: ModuleContext, node: ast.ClassDef) -> dict:
    bases = []
    is_protocol = False
    for base in node.bases:
        desc = ctx.annotation(base)
        if desc["k"] == "sub":
            desc = desc["base"]
        if desc["k"] == "ref":
            bases.append(desc["n"])
            if desc["n"].rsplit(".", 1)[-1] == "Protocol":
                is_protocol = True
        elif isinstance(base, ast.Name):
            bases.append(base.id)
            if base.id == "Protocol":
                is_protocol = True
    methods = {}
    fields = {}
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[statement.name] = _function_summary(
                ctx, statement, node.name
            )
        elif isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            fields[statement.target.id] = ctx.annotation(
                statement.annotation
            )
    return {
        "name": node.name,
        "line": node.lineno,
        "bases": bases,
        "protocol": is_protocol,
        "methods": methods,
        "fields": fields,
    }


def _registries(ctx: ModuleContext) -> Dict[str, List[str]]:
    found: Dict[str, List[str]] = {}
    for node in ctx.tree.body:
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
                    desc = ctx.annotation(element)
                    if desc["k"] == "ref":
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
    functions: Dict[str, dict] = {}
    classes: Dict[str, dict] = {}
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = _function_summary(ctx, node, None)
        elif isinstance(node, ast.ClassDef):
            classes[node.name] = _class_summary(ctx, node)
    payload = {
        "aliases": ctx.aliases(),
        "functions": functions,
        "classes": classes,
        "registries": _registries(ctx),
    }
    summary = ModuleSummary(ctx.rel, ctx.module, payload)
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

    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    units = []
    for node in ctx.tree.body:
        if isinstance(node, defs):
            units.append((node, summary.functions.get(node.name)))
        elif isinstance(node, ast.ClassDef):
            methods = summary.classes[node.name]["methods"]
            units += [
                (statement, methods.get(statement.name))
                for statement in node.body
                if isinstance(statement, defs)
            ]
    for site in direct_impure_sites(ctx):
        owners = [
            (node.lineno, unit)
            for node, unit in units
            if node.lineno <= site["line"] <= node.end_lineno
        ]
        if owners:  # the innermost unit around the site
            unit = max(owners, key=lambda owner: owner[0])[1]
            if unit is not None:
                unit["impure"].append(site)


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
        for base in klass["bases"]:
            order.extend(self.mro(base, seen))
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
        if kind == "any":
            found = [
                concrete
                for concrete in (
                    self.concrete_type(member, _depth + 1)
                    for member in desc["of"]
                )
                if concrete not in (None, _NONE)
            ]
            if found and all(each == found[0] for each in found):
                return found[0]
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
