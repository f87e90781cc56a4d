"""The product surface: every definition in ``src/`` is reached by a root.

Roots are the identifiers ``examples/*.py`` and ``perf/*.py`` mention plus
every module-level statement of ``src/`` that is not an import or an
``__all__`` assignment (so a re-export keeps nothing alive, but a registry
dict, a decorator or an ``if __name__ == "__main__"`` block does).  A
definition is live when something live mentions its bare name and, for a
method, its class is live; dunder methods live with their class.  That
over-approximates reachability -- any same-named definition anywhere
keeps a name alive -- so whatever it reports is called by nothing but
tests: delete it with them, do not move it under ``tests/``.
"""

import ast
import functools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: ``module:qualname`` patterns kept although no root reaches them, each
#: with its reason.  Oracles, contracts, fault injection and dispatch by
#: name only -- nothing here is product.
EXEMPT = {
    r"repro\.verify\..*":
        "oracles, differential harness and chaos hooks tests drive",
    r"repro\.campaign\.runner:KillRun":
        "fault injection: what a chaos hook raises to kill a run",
    r"repro\.sim\.refengine:.*":
        "the reference engine every scenario digest is checked against",
    r"repro\.sim\.scheduler:.*":
        "the EventScheduler protocol both engines implement (PRO001)",
    r"repro\.sim\.engine:Engine\.next_event_time":
        "EventScheduler contract; equivalence tests fingerprint through it",
}


def _mentions(nodes, imports=False):
    names = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif imports and isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _is_root_statement(stmt):
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return False
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return not any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in targets
    )


def _collect(body, module, owner, defs):
    """Record the defs in ``body``; return its other statements (and
    the defs' decorators, which run in the enclosing scope)."""
    rest = []
    for stmt in body:
        if not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            rest.append(stmt)
            continue
        rest.extend(stmt.decorator_list)
        qual = f"{owner}.{stmt.name}" if owner else stmt.name
        if isinstance(stmt, ast.ClassDef):
            inner = _collect(stmt.body, module, qual, defs)
            mentions = _mentions(stmt.bases + stmt.keywords + inner)
        else:
            returns = [stmt.returns] if stmt.returns else []
            mentions = _mentions([stmt.args, *stmt.body, *returns])
        defs[f"{module}:{qual}"] = (
            stmt.name, f"{module}:{owner}" if owner else None, mentions
        )
    return rest


@functools.lru_cache(maxsize=None)
def unreachable(honour_exemptions=True):
    """Sorted ``module:qualname`` of every definition no root reaches."""
    defs, live_names = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts).removesuffix(".__init__")
        top = _collect(ast.parse(path.read_text()).body, module, "", defs)
        live_names |= _mentions(filter(_is_root_statement, top))
    for folder in ("examples", "perf"):
        for path in sorted((REPO / folder).glob("*.py")):
            tree = ast.parse(path.read_text())
            live_names |= _mentions([tree], imports=True)

    live = set()
    exempt = {
        key for key in defs
        if honour_exemptions and any(re.fullmatch(p, key) for p in EXEMPT)
    }
    changed = True
    while changed:
        changed = False
        for key, (name, owner, mentions) in defs.items():
            if key in live:
                continue
            dunder = owner and name.startswith("__") and name.endswith("__")
            reached = (dunder or name in live_names) and (
                owner is None or owner in live
            )
            if reached or key in exempt:
                live.add(key)
                live_names |= mentions
                changed = True
    return sorted(set(defs) - live)


def test_every_definition_is_reached_by_a_root():
    dead = unreachable()
    assert not dead, (
        f"{len(dead)} definition(s) in src/ that no root reaches -- delete "
        "them with their tests, or name the root that calls them:\n  "
        + "\n  ".join(dead)
    )


def test_every_exemption_is_needed():
    dead = unreachable(honour_exemptions=False)
    for pattern, reason in EXEMPT.items():
        assert any(re.fullmatch(pattern, key) for key in dead), (
            f"nothing unreachable matches {pattern!r} ({reason}); "
            "drop the exemption"
        )
