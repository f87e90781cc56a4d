"""Conservative whole-program call graph over module summaries.

Nodes are function units (module-level functions and methods, named
by ``module.qualname``); edges come from three resolution strategies,
each over-approximate where the file's binding table can type the
callee.  A taint pass built on this graph misses a hazard only behind
a callee the table cannot resolve: an unknown value, or a name bound
to values of different classes (conflicting rebinds are unknown):

- **direct calls** through the scoped binding table, following re-export
  chains (``from ..campaign import run_campaign`` inside a package
  ``__init__`` still lands on ``repro.campaign.runner.run_campaign``);
- **method calls** on receivers whose class is recoverable from the
  conservative type descriptors (annotations, constructor calls,
  ``self``); a receiver typed as a Protocol fans out to *every*
  structural implementer — dynamic dispatch is modeled as "any of
  them";
- **function references** (``pool.imap_unordered(_shard_task, ...)``,
  callbacks, decorators): a function whose reference escapes may be
  called, so the reference site gets an edge of kind ``ref``.

Calling a class adds an edge to its ``__init__`` (and
``__post_init__`` when defined) so constructor impurity is visible.
Everything iterates in sorted order: graph dumps and finding output
are byte-stable run to run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .symbols import ModuleSummary, ProjectIndex

__all__ = ["CallGraph", "build_callgraph"]


class CallGraph:
    """Nodes, sorted adjacency, and BFS reachability with parents."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: fqn -> {"path", "line", "name", "impure": [...]}
        self.nodes: Dict[str, dict] = {}
        #: (src, dst, line, kind) — kind is "call" | "ref" | "init"
        self._edges: set = set()

    # -- construction -------------------------------------------------------

    def add_node(self, fqn: str, info: dict) -> None:
        self.nodes[fqn] = info

    def add_edge(self, src: str, dst: str, line: int, kind: str) -> None:
        if src in self.nodes and dst in self.nodes:
            self._edges.add((src, dst, line, kind))

    @property
    def edges(self) -> List[Tuple[str, str, int, str]]:
        return sorted(self._edges)

    # -- reachability -------------------------------------------------------

    def reachable_from(
        self, entries: Sequence[str]
    ) -> Dict[str, Optional[Tuple[str, int]]]:
        """BFS over sorted entries/successors; maps every reachable
        fqn to its ``(parent fqn, call line)`` — entries map to None.
        First-found parents are deterministic, so reported chains are
        stable."""
        adjacency: Dict[str, List[Tuple[str, int, str]]] = {}
        for src, dst, line, kind in self.edges:
            adjacency.setdefault(src, []).append((dst, line, kind))
        parents: Dict[str, Optional[Tuple[str, int]]] = {}
        queue: List[str] = []
        for entry in sorted(set(entries)):
            if entry in self.nodes and entry not in parents:
                parents[entry] = None
                queue.append(entry)
        head = 0
        while head < len(queue):
            current = queue[head]
            head += 1
            for dst, line, _kind in adjacency.get(current, []):
                if dst not in parents:
                    parents[dst] = (current, line)
                    queue.append(dst)
        return parents

    @staticmethod
    def chain(
        parents: Dict[str, Optional[Tuple[str, int]]], fqn: str
    ) -> List[str]:
        """Entry-to-``fqn`` call chain under a ``reachable_from``
        parent map."""
        links: List[str] = []
        current: Optional[str] = fqn
        while current is not None:
            links.append(current)
            step = parents.get(current)
            current = step[0] if step else None
        return list(reversed(links))

    # -- serialization ------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "schema": 1,
            "nodes": [
                {
                    "fqn": fqn,
                    "path": info["path"],
                    "line": info["line"],
                    "impure": info["impure"],
                }
                for fqn, info in sorted(self.nodes.items())
            ],
            "edges": [
                {"src": src, "dst": dst, "line": line, "kind": kind}
                for src, dst, line, kind in self.edges
            ],
        }


def _register_nodes(
    graph: CallGraph, summaries: Sequence[ModuleSummary]
) -> None:
    for summary in summaries:
        for name in sorted(summary.functions):
            func = summary.functions[name]
            graph.add_node(
                f"{summary.module}.{name}",
                {
                    "path": summary.rel,
                    "line": func["line"],
                    "name": name,
                    "impure": func["impure"],
                },
            )
        for cls_name in sorted(summary.classes):
            klass = summary.classes[cls_name]
            for method_name in sorted(klass["methods"]):
                method = klass["methods"][method_name]
                graph.add_node(
                    f"{summary.module}.{cls_name}.{method_name}",
                    {
                        "path": summary.rel,
                        "line": method["line"],
                        "name": method_name,
                        "impure": method["impure"],
                    },
                )


def _class_call_targets(
    index: ProjectIndex, class_fqn: str
) -> List[str]:
    """Calling a class runs its constructor chain."""
    targets = []
    for hook in ("__init__", "__post_init__"):
        found = index.method_lookup(class_fqn, hook)
        if found is not None:
            targets.append(found[0])
    return targets


def _edges_for_target(
    graph: CallGraph, src: str, target: dict, line: int, kind: str
) -> None:
    index = graph.index
    if target.get("t") == "ref":
        resolved = index.resolve_ref(target.get("n", ""))
        if resolved is None:
            return
        resolved_kind, fqn, payload = resolved
        if resolved_kind == "func":
            graph.add_edge(src, fqn, line, kind)
            if payload.get("cls"):
                # A receiver annotated with a class type reaches its
                # method through this ref path (``t.tick`` with
                # ``t: Ticker`` resolves like a dotted attribute); if
                # that class is a Protocol, fan out to every
                # structural implementer, same as the method path.
                cls_fqn, attr = fqn.rsplit(".", 1)
                _fan_out_protocol(graph, src, cls_fqn, attr, line, kind)
        else:
            for ctor in _class_call_targets(index, fqn):
                graph.add_edge(src, ctor, line, "init")
        return
    if target.get("t") == "method":
        recv = index.concrete_type(target.get("recv"))
        if recv is None or recv.get("k") != "class":
            return
        attr = target["attr"]
        klass = index.class_summary(recv["fqn"])
        if klass is not None and klass["protocol"]:
            _fan_out_protocol(graph, src, recv["fqn"], attr, line, kind)
            return
        found = index.method_lookup(recv["fqn"], attr)
        if found is not None:
            graph.add_edge(src, found[0], line, kind)


def _fan_out_protocol(
    graph: CallGraph,
    src: str,
    proto_fqn: str,
    attr: str,
    line: int,
    kind: str,
) -> None:
    """Dynamic dispatch on a Protocol-typed receiver: any structural
    implementer's method may run."""
    index = graph.index
    klass = index.class_summary(proto_fqn)
    if klass is None or not klass["protocol"]:
        return
    for impl in index.implementers(proto_fqn):
        found = index.method_lookup(impl, attr)
        if found is not None:
            graph.add_edge(src, found[0], line, kind)


def build_callgraph(index: ProjectIndex) -> CallGraph:
    """Assemble the graph for every function unit in the index."""
    graph = CallGraph(index)
    _register_nodes(graph, index.summaries)
    for summary in index.summaries:
        units: List[Tuple[str, dict]] = []
        for name in sorted(summary.functions):
            units.append(
                (f"{summary.module}.{name}", summary.functions[name])
            )
        for cls_name in sorted(summary.classes):
            klass = summary.classes[cls_name]
            for method_name in sorted(klass["methods"]):
                units.append(
                    (
                        f"{summary.module}.{cls_name}.{method_name}",
                        klass["methods"][method_name],
                    )
                )
        for fqn, unit in units:
            for call in unit["calls"]:
                _edges_for_target(
                    graph,
                    fqn,
                    call["target"],
                    call["line"],
                    call["kind"],
                )
    return graph
