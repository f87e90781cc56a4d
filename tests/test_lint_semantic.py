"""Tests for the whole-program semantic passes of ``repro.lint``.

Covers the project symbol table and call graph (import aliases,
method dispatch through inferred receiver types, Protocol fan-out,
cycles), the interprocedural determinism taint pass (DET1xx: fixed
point, multi-frame call chains in messages, pragma discipline at the
*source* site), the process-boundary contract rule (CON001), static
Protocol conformance (PRO001), and file discovery exclusions.

The regression class at the bottom re-introduces a wall-clock read
into a copy of the real ``run_campaign`` and asserts DET102 reports
it with the full ``build_golden -> run_campaign`` chain — the exact
bug class this PR fixed in the live tree.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rules
from repro.lint.engine import ModuleContext, iter_python_files
from repro.lint.semantic import (
    ProjectIndex,
    build_callgraph,
    summarize_module,
)
from repro.lint.semantic.taint import entry_points, taint_findings

ROOT = Path(__file__).parent.parent


def write_tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def lint_tree(tmp_path, files, rule=None):
    """Write fixture files, lint the tree, return findings (for one
    rule id when given, else all)."""
    write_tree(tmp_path, files)
    rules = None if rule is None else [r for r in all_rules() if r.id == rule]
    report = LintEngine(tmp_path, rules=rules).lint_paths([tmp_path])
    findings = report.findings
    if rule is not None:
        findings = [f for f in findings if f.rule == rule]
    return findings


def build_graph(tmp_path, files):
    """Write fixture files, return (index, callgraph)."""
    write_tree(tmp_path, files)
    summaries = []
    for path in iter_python_files([tmp_path]):
        rel = path.relative_to(tmp_path).as_posix()
        summaries.append(
            summarize_module(ModuleContext(path, rel, path.read_text()))
        )
    index = ProjectIndex(summaries)
    return index, build_callgraph(index)


def edges_of(graph):
    return {(src, dst) for src, dst, _line, _kind in graph.edges}


class TestCallGraph:
    def test_aliased_from_import_resolves_to_definition(self, tmp_path):
        _, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """
                def helper():
                    return 1
                """,
                "pkg/b.py": """
                from pkg.a import helper as h

                def caller():
                    return h()
                """,
            },
        )
        assert ("pkg.b.caller", "pkg.a.helper") in edges_of(graph)

    def test_reexport_through_package_init(self, tmp_path):
        _, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "from .a import helper\n",
                "pkg/a.py": """
                def helper():
                    return 1
                """,
                "main.py": """
                from pkg import helper

                def entry():
                    return helper()
                """,
            },
        )
        assert ("main.entry", "pkg.a.helper") in edges_of(graph)

    def test_method_call_through_inferred_receiver(self, tmp_path):
        _, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/router.py": """
                class Router:
                    def step(self):
                        return 0
                """,
                "pkg/drive.py": """
                from pkg.router import Router

                def use():
                    r = Router()
                    return r.step()
                """,
            },
        )
        got = edges_of(graph)
        assert ("pkg.drive.use", "pkg.router.Router.step") in got
        # Constructing Router also edges into __init__ when defined;
        # here there is none, so only the method edge exists.

    def test_protocol_receiver_fans_out_to_implementers(self, tmp_path):
        _, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/proto.py": """
                from typing import Protocol

                class Ticker(Protocol):
                    def tick(self) -> int: ...
                """,
                "pkg/impls.py": """
                class Fast:
                    def tick(self) -> int:
                        return 1

                class Slow:
                    def tick(self) -> int:
                        return 2
                """,
                "pkg/drive.py": """
                from pkg.proto import Ticker

                def pump(t: Ticker):
                    return t.tick()
                """,
            },
        )
        got = edges_of(graph)
        assert ("pkg.drive.pump", "pkg.impls.Fast.tick") in got
        assert ("pkg.drive.pump", "pkg.impls.Slow.tick") in got

    def test_cycles_build_and_stay_reachable(self, tmp_path):
        _, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/loop.py": """
                def ping(n):
                    return pong(n - 1)

                def pong(n):
                    return ping(n - 1)
                """,
            },
        )
        got = edges_of(graph)
        assert ("pkg.loop.ping", "pkg.loop.pong") in got
        assert ("pkg.loop.pong", "pkg.loop.ping") in got
        parents = graph.reachable_from(["pkg.loop.ping"])
        assert "pkg.loop.pong" in parents

    def test_function_local_imports_stay_in_their_function(self, tmp_path):
        # Two functions import different callables under one alias; a
        # third uses the bare alias it never bound.  Each import is
        # visible only inside the function that made it.
        _, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": """
                def helper():
                    return 1
                """,
                "pkg/b.py": """
                def other():
                    return 2
                """,
                "pkg/c.py": """
                def first():
                    from pkg.a import helper as h
                    return h()

                def second():
                    from pkg.b import other as h
                    return h()

                def third():
                    return h()
                """,
            },
        )
        got = edges_of(graph)
        assert ("pkg.c.first", "pkg.a.helper") in got
        assert ("pkg.c.first", "pkg.b.other") not in got
        assert ("pkg.c.second", "pkg.b.other") in got
        assert not [edge for edge in got if edge[0] == "pkg.c.third"]

    def test_module_level_binding_types_calls_in_functions(self, tmp_path):
        _, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/clock.py": """
                class Clock:
                    def read(self):
                        return 0

                def parse(text):
                    return text
                """,
                "pkg/use.py": """
                from pkg.clock import Clock, parse

                CLOCK = Clock()
                P = parse

                def state_digest():
                    return CLOCK.read(), P("x")
                """,
            },
        )
        got = edges_of(graph)
        assert ("pkg.use.state_digest", "pkg.clock.Clock.read") in got
        assert ("pkg.use.state_digest", "pkg.clock.parse") in got

    def test_rebinds_type_a_call_only_where_they_agree(self, tmp_path):
        _, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/m.py": """
                from typing import Optional

                class A:
                    def go(self):
                        return 1

                class B:
                    def go(self):
                        return 2

                def agree(items, a: Optional[A] = None):
                    a.go()
                    a = A()
                    for a in items:
                        pass
                    a = None

                def conflict():
                    x = A()
                    x.go()
                    x = B()
                """,
            },
        )
        got = edges_of(graph)
        # An annotation, a constructor, a loop variable and a None
        # reset all leave ``a`` an A; A and B leave ``x`` unknown.
        assert ("pkg.m.agree", "pkg.m.A.go") in got
        assert not [
            edge
            for edge in got
            if edge[0] == "pkg.m.conflict" and edge[1].endswith(".go")
        ]


TAINT_FIXTURE = {
    "pkg/__init__.py": "",
    "pkg/clock.py": """
    import time

    def now():
        return time.time()
    """,
    "pkg/mid.py": """
    from pkg.clock import now

    def stamp():
        return now()
    """,
    "pkg/digest.py": """
    from pkg.mid import stamp

    def state_digest():
        return hash_of(stamp())

    def hash_of(value):
        return str(value)
    """,
}


LOCAL_ALIAS_DIGEST = """
def state_digest():
    from pkg.clock import stamp as s
    return s()
"""

LOCAL_ALIAS_UNRELATED = """
def unrelated():
    from pkg.pure import stamp as s
    return s()
"""


class TestTaint:
    def test_three_frame_chain_reported_at_source_site(self, tmp_path):
        findings = lint_tree(tmp_path, TAINT_FIXTURE, rule="DET102")
        assert len(findings) == 1
        finding = findings[0]
        # Anchored at the impure *source* line, not the digest entry.
        assert finding.path == "pkg/clock.py"
        assert finding.line == 5
        assert (
            "pkg.digest.state_digest -> pkg.mid.stamp -> pkg.clock.now"
            in finding.message
        )

    def test_source_site_pragma_suppresses(self, tmp_path):
        files = dict(TAINT_FIXTURE)
        files["pkg/clock.py"] = """
        import time

        def now():
            # lint: allow[DET102] -- fixture: value never enters digest
            return time.time()
        """
        findings = lint_tree(tmp_path, files, rule="DET102")
        assert findings == []

    def test_det002_pragma_does_not_suppress_det102(self, tmp_path):
        files = dict(TAINT_FIXTURE)
        files["pkg/clock.py"] = """
        import time

        def now():
            # lint: allow[DET002] -- fixture: display only (wrongly)
            return time.time()
        """
        findings = lint_tree(tmp_path, files, rule="DET102")
        assert len(findings) == 1, (
            "a per-file DET002 waiver must not silence the "
            "interprocedural proof that the value reaches a digest"
        )

    def test_environ_read_taints_as_det105(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/env.py": """
                import os

                def knob():
                    return os.environ.get("REPRO_KNOB", "0")

                def detection_digest():
                    return knob()
                """,
            },
            rule="DET105",
        )
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_propagation_converges_on_mutual_recursion(self, tmp_path):
        index, graph = build_graph(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/rec.py": """
                import time

                def state_digest():
                    return even(8)

                def even(n):
                    return n == 0 or odd(n - 1)

                def odd(n):
                    time.time()
                    return n != 0 and even(n - 1)
                """,
            },
        )
        assert entry_points(graph) == ["pkg.rec.state_digest"]
        (finding,) = taint_findings(graph)
        assert (finding["rule"], finding["line"]) == ("DET102", 11)
        assert (
            "pkg.rec.state_digest -> pkg.rec.even -> pkg.rec.odd"
            in finding["message"]
        )

    def test_pure_chain_stays_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/pure.py": """
                def state_digest():
                    return helper(3)

                def helper(n):
                    return sorted(range(n))
                """,
            },
        )
        assert [f for f in findings if f.rule.startswith("DET1")] == []

    @pytest.mark.parametrize("digest_first", [True, False])
    def test_det102_sees_a_function_local_alias(self, tmp_path, digest_first):
        # A later function importing the same alias from a pure module
        # must not hide the clock read under state_digest, whichever of
        # the two functions comes first.
        parts = [LOCAL_ALIAS_DIGEST, LOCAL_ALIAS_UNRELATED]
        if not digest_first:
            parts.reverse()
        findings = lint_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/clock.py": """
                import time

                def stamp():
                    return time.time()
                """,
                "pkg/pure.py": """
                def stamp():
                    return 0
                """,
                "pkg/d.py": "\n".join(parts),
            },
            rule="DET102",
        )
        assert [(f.path, f.line) for f in findings] == [("pkg/clock.py", 5)]
        assert "pkg.d.state_digest -> pkg.clock.stamp" in findings[0].message


class TestCON001:
    def test_seam_without_registry_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/pkg/sim/parallel.py": """
                def shard_task(index):
                    return index
                """,
            },
            rule="CON001",
        )
        assert len(findings) == 1
        assert findings[0].line == 1
        assert "TRANSFERABLE_TYPES" in findings[0].message

    def test_unregistered_send_payload_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/pkg/sim/parallel.py": """
                class Msg:
                    pass

                class Evil:
                    pass

                TRANSFERABLE_TYPES = (Msg,)

                def make() -> Evil:
                    return Evil()

                def worker(conn):
                    conn.send(make())
                """,
            },
            rule="CON001",
        )
        assert len(findings) == 1
        assert findings[0].line == 14
        assert "Evil" in findings[0].message

    def test_registered_send_payload_is_clean(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/pkg/sim/parallel.py": """
                class Msg:
                    pass

                TRANSFERABLE_TYPES = (Msg,)

                def make() -> Msg:
                    return Msg()

                def worker(conn):
                    conn.send(("ok", [make()]))
                """,
            },
            rule="CON001",
        )
        assert findings == []

    def test_lambda_worker_target_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/pkg/sim/parallel.py": """
                from multiprocessing import Process

                class Msg:
                    pass

                TRANSFERABLE_TYPES = (Msg,)

                def spawn():
                    return Process(target=lambda: None)
                """,
            },
            rule="CON001",
        )
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_worker_reading_mutable_global_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/pkg/sim/parallel.py": """
                class Msg:
                    pass

                TRANSFERABLE_TYPES = (Msg,)

                STATE = {}

                def worker(index):
                    return STATE.get(index)

                def spawn(pool):
                    return pool.map(worker, [1, 2])
                """,
            },
            rule="CON001",
        )
        assert len(findings) == 1
        assert "STATE" in findings[0].message

    def test_non_seam_module_is_ignored(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "src/pkg/other.py": """
                def worker(conn):
                    conn.send(object())
                """,
            },
            rule="CON001",
        )
        assert findings == []


PRO_SCHEDULER = """
from typing import Protocol


class EventScheduler(Protocol):
    def schedule(self, when: float, event: object) -> None: ...

    def run_until(self, when: float) -> int: ...
"""


class TestPRO001:
    def _lint(self, tmp_path, engine_src):
        return lint_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/sim/__init__.py": "",
                "src/repro/sim/scheduler.py": PRO_SCHEDULER,
                "src/repro/sim/engine.py": engine_src,
            },
            rule="PRO001",
        )

    def test_conforming_implementer_is_clean(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            class Engine:
                def schedule(self, when: float, event: object) -> None:
                    pass

                def run_until(self, when: float) -> int:
                    return 0
            """,
        )
        assert findings == []

    def test_missing_method_is_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            class Engine:
                def schedule(self, when: float, event: object) -> None:
                    pass
            """,
        )
        assert len(findings) == 1
        assert "run_until" in findings[0].message

    def test_arity_drift_is_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            class Engine:
                def schedule(self, when, event, priority):
                    pass

                def run_until(self, when):
                    return 0
            """,
        )
        assert len(findings) == 1
        assert "schedule" in findings[0].message

    def test_absent_protocol_is_silent(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {"src/pkg/mod.py": "class Engine:\n    pass\n"},
            rule="PRO001",
        )
        assert findings == []


class TestFileDiscovery:
    def test_build_artifacts_and_hidden_dirs_are_excluded(
        self, tmp_path
    ):
        write_tree(
            tmp_path,
            {
                "src/repro/mod.py": "x = 1\n",
                "src/repro.egg-info/stale.py": "import random\n",
                "build/lib/repro/mod.py": "import random\n",
                "dist/pkg/mod.py": "import random\n",
                ".tox/env/site.py": "import random\n",
                "src/repro/__pycache__/mod.py": "import random\n",
            },
        )
        found = iter_python_files([tmp_path])
        rels = [p.relative_to(tmp_path).as_posix() for p in found]
        assert rels == ["src/repro/mod.py"]

    def test_explicit_file_arguments_are_never_filtered(self, tmp_path):
        target = tmp_path / "build" / "lib" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("x = 1\n")
        assert iter_python_files([target]) == [target]


class TestRunCampaignRegression:
    """Re-introducing a wall-clock read into the real ``run_campaign``
    must be caught with the full build_golden chain (the true positive
    this PR fixed: CampaignResult carried a ``time.perf_counter``
    elapsed field straight into the golden corpus's call graph)."""

    COPIES = (
        "src/repro/__init__.py",
        "src/repro/campaign/__init__.py",
        "src/repro/campaign/runner.py",
        "src/repro/verify/__init__.py",
        "src/repro/verify/golden.py",
    )

    def _doctored_tree(self, tmp_path):
        for rel in self.COPIES:
            dst = tmp_path / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / rel, dst)
        runner = tmp_path / "src/repro/campaign/runner.py"
        text = runner.read_text()
        anchor = "    plan = config.shard_plan()"
        assert anchor in text, "run_campaign anchor moved; update test"
        runner.write_text(
            "import time\n"
            + text.replace(
                anchor, anchor + "\n    _started = time.perf_counter()"
            )
        )
        return tmp_path

    def test_reintroduced_clock_read_reports_full_chain(self, tmp_path):
        tree = self._doctored_tree(tmp_path)
        report = LintEngine(
            tree, rules=[r for r in all_rules() if r.id == "DET102"]
        ).lint_paths([tree / "src"])
        findings = [f for f in report.findings if f.rule == "DET102"]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.path == "src/repro/campaign/runner.py"
        assert (
            "repro.verify.golden.build_golden -> "
            "repro.campaign.runner.run_campaign" in finding.message
        )

    def test_current_tree_is_clean_without_the_edit(self, tmp_path):
        for rel in self.COPIES:
            dst = tmp_path / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / rel, dst)
        report = LintEngine(
            tmp_path, rules=[r for r in all_rules() if r.id == "DET102"]
        ).lint_paths([tmp_path / "src"])
        assert report.findings == []
