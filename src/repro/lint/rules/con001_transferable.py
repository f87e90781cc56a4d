"""CON001: the process-boundary transfer contract.

Three modules ship values between processes — the campaign pool
(``campaign/runner.py`` + ``campaign/handoff.py``) and the parallel
simulation's worker pipes (``sim/parallel.py``).  Everything that
crosses one of those seams is serialized, so its type is part of a
*protocol*, not an implementation detail: a field added to a class
one side pickles is a silent wire-format change.  The contract,
extending the ``COMMUTATIVE_MERGES`` registry idea:

- every seam module declares a module-level ``TRANSFERABLE_TYPES``
  tuple naming the project classes allowed to cross its boundary;
- a value whose inferred type is a project class (directly or inside
  a tuple/list payload) sent through ``conn.send(...)``, or named in
  a worker target's parameter/return annotations, must appear in the
  union of the declared registries;
- worker target callables (``Process(target=...)``, pool
  ``imap``/``imap_unordered``/``map``/``apply_async``/... first
  arguments) must be module-level project functions — not lambdas,
  nested closures, or bound methods, which drag their enclosing state
  into the pickle — and must not declare ``global`` or read
  module-global mutable state (fork shares it by accident, spawn
  silently re-initializes it; neither is a contract).

Unknown types stay innocent (the repo-wide "prefer false negatives"
rule): the checks fire only on types the conservative inference can
actually prove.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Tuple

from ..engine import Finding, ModuleContext, ProgramContext, ProgramRule

__all__ = ["TransferableRule"]

REGISTRY_NAME = "TRANSFERABLE_TYPES"

#: The worker seams (lint-root-relative path suffixes).
TARGET_SUFFIXES = (
    "campaign/handoff.py",
    "campaign/runner.py",
    "sim/parallel.py",
)

#: Pool methods whose first positional argument runs in a worker.
_POOL_METHODS = frozenset(
    {
        "apply",
        "apply_async",
        "imap",
        "imap_unordered",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
    }
)

#: Module-level value shapes treated as mutable global state.
_MUTABLE_CALLS = frozenset(
    {
        "builtins.dict",
        "builtins.list",
        "builtins.set",
        "collections.defaultdict",
        "collections.deque",
        "collections.OrderedDict",
        "collections.Counter",
    }
)


def _seam_files(program: ProgramContext) -> List[str]:
    return sorted(
        rel
        for _path, rel in program.files
        if rel.endswith(TARGET_SUFFIXES)
    )


class TransferableRule(ProgramRule):
    id = "CON001"
    title = "unregistered type or stateful callable at a worker seam"
    rationale = (
        "Values crossing campaign/handoff.py, campaign/runner.py, or "
        "sim/parallel.py worker boundaries are wire format: each seam "
        "module must declare TRANSFERABLE_TYPES, every project class "
        "that crosses must be registered there, and worker targets "
        "must be module-level functions free of module-global mutable "
        "state — a closure or global sneaking through the pickle is "
        "exactly the nondeterminism the handoff digests exist to "
        "catch at runtime; this catches it before."
    )

    def check_program(
        self, program: ProgramContext
    ) -> Iterable[Finding]:
        seams = _seam_files(program)
        if not seams:
            return
        allowed = self._allowed_types(program, seams)
        for rel in seams:
            summary = self._summary_for(program, rel)
            ctx = program.context(rel)
            if summary is None or ctx is None:
                continue
            registry = summary.registries.get(REGISTRY_NAME)
            if not registry:
                yield program.finding(
                    self.id,
                    rel,
                    1,
                    f"worker-seam module declares no {REGISTRY_NAME} "
                    "registry: every type crossing this process "
                    "boundary must be named in a module-level "
                    f"{REGISTRY_NAME} tuple",
                )
                continue
            yield from self._check_seam(program, rel, ctx, allowed)

    # -- registry -----------------------------------------------------------

    def _summary_for(self, program: ProgramContext, rel: str):
        from ..semantic import module_name_for

        return program.index.by_module.get(module_name_for(rel))

    def _allowed_types(
        self, program: ProgramContext, seams: List[str]
    ) -> frozenset:
        allowed = set()
        for rel in seams:
            summary = self._summary_for(program, rel)
            if summary is None:
                continue
            for dotted in summary.registries.get(REGISTRY_NAME, ()):
                resolved = program.index.resolve_ref(dotted)
                if resolved is not None and resolved[0] == "class":
                    allowed.add(resolved[1])
                else:
                    allowed.add(dotted)
        return frozenset(allowed)

    # -- seam checks --------------------------------------------------------

    def _check_seam(
        self,
        program: ProgramContext,
        rel: str,
        ctx: ModuleContext,
        allowed: frozenset,
    ) -> Iterable[Finding]:
        units = _function_units(ctx)
        mutable_globals = _mutable_globals(ctx)
        worker_targets: List[Tuple[ast.AST, Optional[ast.expr]]] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = _worker_target(node)
            if target is not None:
                worker_targets.append((node, target))
        checked: set = set()
        for call, target in worker_targets:
            yield from self._check_target(
                program,
                rel,
                ctx,
                call,
                target,
                units,
                mutable_globals,
                allowed,
                checked,
            )
        yield from self._check_sends(program, rel, ctx, allowed)

    def _check_target(
        self,
        program: ProgramContext,
        rel: str,
        ctx: ModuleContext,
        call: ast.Call,
        target: ast.expr,
        units: Dict[str, ast.AST],
        mutable_globals: frozenset,
        allowed: frozenset,
        checked: set,
    ) -> Iterable[Finding]:
        if isinstance(target, ast.Lambda):
            yield program.finding(
                self.id,
                rel,
                target.lineno,
                "worker target is a lambda: targets must be "
                "module-level functions (closures smuggle enclosing "
                "state across the process boundary)",
            )
            return
        if not isinstance(target, ast.Name):
            # Bound methods / attribute targets pickle their instance.
            if isinstance(target, ast.Attribute):
                yield program.finding(
                    self.id,
                    rel,
                    target.lineno,
                    "worker target is a bound attribute: targets must "
                    "be module-level functions (the receiver object "
                    "would be pickled into every worker)",
                )
            return
        name = target.id
        func_node = units.get(name)
        if func_node is None:
            # Imported or unknown target: resolvable project functions
            # in other modules stay fair game for the registry check;
            # unknown names stay innocent.
            return
        if name in checked:
            return
        checked.add(name)
        if not _is_module_level(ctx, func_node):
            yield program.finding(
                self.id,
                rel,
                call.lineno,
                f"worker target {name}() is not module-level: nested "
                "functions capture their defining frame and cannot "
                "cross the process boundary cleanly",
            )
            return
        for stmt in ast.walk(func_node):
            if isinstance(stmt, ast.Global):
                yield program.finding(
                    self.id,
                    rel,
                    stmt.lineno,
                    f"worker target {name}() declares global "
                    f"{', '.join(stmt.names)}: workers must not "
                    "mutate parent-module state (fork shares it by "
                    "accident, spawn discards it)",
                )
        yield from self._check_global_reads(
            program, rel, ctx, func_node, name, mutable_globals
        )
        yield from self._check_annotations(
            program, rel, func_node, name, allowed
        )

    def _check_global_reads(
        self,
        program: ProgramContext,
        rel: str,
        ctx: ModuleContext,
        func_node: ast.AST,
        name: str,
        mutable_globals: frozenset,
    ) -> Iterable[Finding]:
        reported = set()
        for node in ast.walk(func_node):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in mutable_globals
                and node.id not in reported
                and ctx.binding_scope(node) is ctx.tree
            ):
                reported.add(node.id)
                yield program.finding(
                    self.id,
                    rel,
                    node.lineno,
                    f"worker target {name}() reads module-global "
                    f"mutable state ({node.id}): worker inputs must "
                    "arrive through arguments, not shared module "
                    "state",
                )

    def _check_annotations(
        self,
        program: ProgramContext,
        rel: str,
        func_node: ast.AST,
        name: str,
        allowed: frozenset,
    ) -> Iterable[Finding]:
        """Worker-function signatures are the declared wire format:
        any project class they name must be registered."""
        ctx = program.context(rel)
        annotations = [
            (param.annotation, f"parameter {param.arg!r}")
            for param in (
                list(func_node.args.posonlyargs)
                + list(func_node.args.args)
                + list(func_node.args.kwonlyargs)
            )
            if param.annotation is not None
        ]
        if func_node.returns is not None:
            annotations.append((func_node.returns, "return value"))
        for annotation, what in annotations:
            desc = ctx.annotation(annotation)
            for fqn in _unregistered(program, desc, allowed):
                yield program.finding(
                    self.id,
                    rel,
                    annotation.lineno,
                    f"worker target {name}()'s {what} carries "
                    f"{fqn} across the process boundary but it is "
                    f"not registered in {REGISTRY_NAME}",
                )

    def _check_sends(
        self,
        program: ProgramContext,
        rel: str,
        ctx: ModuleContext,
        allowed: frozenset,
    ) -> Iterable[Finding]:
        """Every ``<pipe>.send(x)`` in a seam module ships ``x`` to
        another process: type it and hold it to the registry."""
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "send"
                and len(node.args) == 1
                and any(
                    isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for a in ctx.ancestors(node)
                )
            ):
                continue
            desc = ctx.expr_type(node.args[0])
            for fqn in _unregistered(program, desc, allowed):
                yield program.finding(
                    self.id,
                    rel,
                    node.lineno,
                    f"conn.send() payload carries {fqn} across the "
                    "process boundary but it is not registered in "
                    f"{REGISTRY_NAME}",
                )


# -- helpers (module-level so they stay import-light) -----------------------


def _worker_target(call: ast.Call) -> Optional[ast.expr]:
    """The callable a Call ships to a worker, if it ships one."""
    func = call.func
    is_process = (
        isinstance(func, ast.Attribute) and func.attr == "Process"
    ) or (isinstance(func, ast.Name) and func.id == "Process")
    if is_process:
        for keyword in call.keywords:
            if keyword.arg == "target":
                return keyword.value
        return None
    if (
        isinstance(func, ast.Attribute)
        and func.attr in _POOL_METHODS
        and call.args
    ):
        return call.args[0]
    return None


def _function_units(ctx: ModuleContext) -> Dict[str, ast.AST]:
    """Every named function def in the file (any nesting), by name."""
    units: Dict[str, ast.AST] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.setdefault(node.name, node)
    return units


def _is_module_level(ctx: ModuleContext, func_node: ast.AST) -> bool:
    return ctx.parent(func_node) is ctx.tree


def _mutable_globals(ctx: ModuleContext) -> frozenset:
    """Module-level names bound to mutable containers."""
    found = set()
    for node in ctx.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        mutable = isinstance(
            value,
            (
                ast.Dict,
                ast.List,
                ast.Set,
                ast.DictComp,
                ast.ListComp,
                ast.SetComp,
            ),
        )
        if isinstance(value, ast.Call):
            origin = ctx.resolve(value.func)
            mutable = origin in _MUTABLE_CALLS
        if not mutable:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                found.add(target.id)
    return frozenset(found)


def _unregistered(
    program: ProgramContext, desc: Optional[dict], allowed: frozenset
) -> List[str]:
    """Project-class fqns in ``desc`` missing from the registry."""
    concrete = program.index.concrete_type(desc)
    offenders: List[str] = []
    _walk_concrete(concrete, allowed, offenders, set())
    return sorted(set(offenders))


def _walk_concrete(
    concrete: Optional[dict],
    allowed: frozenset,
    offenders: List[str],
    seen: set,
) -> None:
    if concrete is None:
        return
    kind = concrete.get("k")
    if kind == "class":
        fqn = concrete["fqn"]
        if fqn not in allowed and fqn not in seen:
            seen.add(fqn)
            offenders.append(fqn)
        return
    if kind == "container":
        for arg in concrete.get("args", []):
            _walk_concrete(arg, allowed, offenders, seen)
