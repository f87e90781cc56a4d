"""DET003: iteration over unordered collections without ``sorted()``.

Sets iterate in hash order (randomized per process for strings),
``os.listdir`` / ``Path.iterdir`` / ``glob`` return filesystem order
(whatever the OS feels like), and ``dict.keys()`` order is whatever
insertion order happened to be.  Feed any of those into accumulation,
a digest, or output and two identical runs can disagree — the exact
failure class the campaign's resume path and the golden corpus cannot
tolerate.  Wrapping the source in ``sorted()`` (or consuming it with
an order-insensitive reducer like ``len``/``sum``/``set``) makes the
order canonical and satisfies the rule.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..engine import Finding, ModuleContext, Rule

#: Filesystem-enumeration calls (by resolved origin).
_FS_ORIGINS = frozenset(
    {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)

#: Filesystem-enumeration methods (any receiver; Path-style API).
_FS_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Consumers whose result cannot depend on iteration order.
_ORDER_INSENSITIVE = frozenset(
    {
        "builtins.sorted",
        "builtins.len",
        "builtins.sum",
        "builtins.min",
        "builtins.max",
        "builtins.any",
        "builtins.all",
        "builtins.set",
        "builtins.frozenset",
        "collections.Counter",
    }
)


class UnsortedIterationRule(Rule):
    id = "DET003"
    title = "iteration over an unordered source"
    rationale = (
        "Set / directory-listing / dict.keys() iteration order is "
        "not canonical; wrap the source in sorted() before it feeds "
        "accumulation, digests, or output."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            sources = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sources.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                sources.extend(gen.iter for gen in node.generators)
            else:
                continue
            for source in sources:
                label = self._unordered(ctx, source)
                if label is None:
                    continue
                if self._made_canonical(ctx, node, source):
                    continue
                yield ctx.finding(
                    self.id,
                    source,
                    f"iteration over {label} without an enclosing "
                    "sorted() — the order is not canonical",
                )

    def _unordered(
        self, ctx: ModuleContext, source: ast.AST
    ) -> Optional[str]:
        """A human label when ``source`` iterates in no canonical
        order, else None."""
        if isinstance(source, (ast.Set, ast.SetComp)):
            return "a set literal"
        inferred = ctx.infer(source)
        if inferred == "set":
            return "a set"
        if isinstance(source, ast.Call):
            origin = ctx.resolve(source.func)
            if origin in _FS_ORIGINS:
                return f"'{origin}' output"
            if isinstance(source.func, ast.Attribute):
                method = source.func.attr
                if method in _FS_METHODS:
                    return f"'.{method}()' output"
                if method == "keys":
                    receiver = ctx.infer(source.func.value)
                    if receiver == "dict":
                        return "'.keys()' of a dict"
        return None

    def _made_canonical(
        self, ctx: ModuleContext, loop: ast.AST, source: ast.AST
    ) -> bool:
        """True when an enclosing call pins or neutralizes the order.

        Covers both ``sorted(path.iterdir())`` around the source and
        ``sorted(f(p) for p in path.iterdir())`` /
        ``len({...})`` around the whole comprehension.
        """
        for start in (source, loop):
            for ancestor in ctx.ancestors(start):
                if isinstance(ancestor, ast.stmt):
                    break
                if not isinstance(ancestor, ast.Call):
                    continue
                origin = ctx.resolve(ancestor.func)
                if origin in _ORDER_INSENSITIVE:
                    return True
        return False
