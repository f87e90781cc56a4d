"""Tests for ``repro.lint``: per-rule fixtures, pragmas, CLI.

Each rule gets at least a positive fixture (a snippet the rule must
flag — these tests fail if the rule is deleted), a negative fixture
(the compliant spelling), an aliased/edge variant the old regex audit
could not see, and a pragma-suppressed case.  ``TestRepoIsClean`` is
the tier-1 gate that replaced the regex determinism audit: the whole
repo at HEAD must lint clean.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rules

ROOT = Path(__file__).parent.parent


def lint_snippets(tmp_path, files, rule=None):
    """Write fixture files, lint them, return findings for ``rule``
    (or all findings when rule is None)."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    rules = None if rule is None else [r for r in all_rules() if r.id == rule]
    findings = LintEngine(tmp_path, rules=rules).lint_paths(
        [tmp_path]
    ).findings
    if rule is None:
        return findings
    return [f for f in findings if f.rule == rule]


class TestDET001GlobalRandom:
    def test_flags_module_level_call(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import random
                value = random.randint(0, 10)
                """
            },
            rule="DET001",
        )
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "random.randint" in findings[0].message

    def test_flags_aliased_imports_the_regex_missed(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                from random import randint as ri
                import random as rnd

                def roll(deck):
                    rnd.shuffle(deck)
                    return ri(1, 6)
                """
            },
            rule="DET001",
        )
        assert {f.line for f in findings} == {6, 7}

    def test_seeded_instances_are_compliant(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import random
                import numpy as np

                rng = random.Random(42)
                value = rng.randint(0, 10)
                gen = np.random.default_rng(7)
                entropy = random.SystemRandom()
                """
            },
            rule="DET001",
        )
        assert findings == []

    def test_flags_numpy_global_stream_calls(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import numpy as np
                from numpy import random as npr
                from numpy.random import shuffle

                np.random.seed(3)
                noise = np.random.rand(4)
                pick = npr.randint(0, 10)
                shuffle([1, 2, 3])
                """
            },
            rule="DET001",
        )
        assert {f.line for f in findings} == {6, 7, 8, 9}
        assert "numpy.random.seed" in findings[0].message

    def test_flags_unseeded_numpy_constructors(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import numpy as np
                from numpy.random import MT19937, default_rng

                a = default_rng()
                b = np.random.RandomState()
                c = MT19937()
                d = np.random.default_rng(None)
                e = np.random.RandomState(seed=None)
                f = np.random.SeedSequence()
                """
            },
            rule="DET001",
        )
        assert {f.line for f in findings} == {5, 6, 7, 8, 9, 10}
        assert all("without a seed" in f.message for f in findings)

    def test_seeded_numpy_generators_and_their_methods_are_compliant(
        self, tmp_path
    ):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import numpy as np
                from numpy.random import MT19937, Generator

                def stream(seed, words, pos):
                    source = np.random.RandomState(0)
                    source.set_state(("MT19937", words, pos))
                    bits = MT19937(seed=seed)
                    rng = Generator(bits)
                    child = np.random.default_rng(np.random.SeedSequence(seed))
                    return source.random_sample(8), rng.random(), child.random()
                """
            },
            rule="DET001",
        )
        assert findings == []

    def test_pragma_suppresses_with_justification(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import random
                # lint: allow[DET001] -- fixture: demo of the pragma path
                token = random.getrandbits(32)
                """
            },
            rule="DET001",
        )
        assert findings == []


class TestDET002WallClock:
    def test_flags_wall_clock_reads(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import time
                from datetime import datetime

                def stamp():
                    return time.time(), datetime.now()
                """
            },
            rule="DET002",
        )
        assert {f.line for f in findings} == {6}
        assert len(findings) == 2

    def test_flags_from_import_alias(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                from time import perf_counter as tick

                def elapsed():
                    return tick()
                """
            },
            rule="DET002",
        )
        assert len(findings) == 1
        assert "time.perf_counter" in findings[0].message

    def test_simulated_clocks_are_compliant(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import time

                def run(engine):
                    time.sleep(0)  # not a clock *read*
                    return engine.now  # simulated time is the point
                """
            },
            rule="DET002",
        )
        assert findings == []

    def test_pragma_suppresses_display_only_timing(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import time

                def report():
                    # lint: allow[DET002] -- display-only elapsed line
                    return time.perf_counter()
                """
            },
            rule="DET002",
        )
        assert findings == []


class TestDET003UnsortedIteration:
    def test_flags_set_and_listing_iteration(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import os

                def collect(root, names):
                    unique = set(names)
                    out = []
                    for name in unique:
                        out.append(name)
                    for entry in os.listdir(root):
                        out.append(entry)
                    for path in root.iterdir():
                        out.append(path)
                    return out
                """
            },
            rule="DET003",
        )
        assert {f.line for f in findings} == {7, 9, 11}

    def test_flags_dict_keys_of_known_dict(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                def tally(events):
                    buckets = {}
                    names = [key for key in buckets.keys()]
                    return names
                """
            },
            rule="DET003",
        )
        assert len(findings) == 1

    def test_sorted_and_reducers_are_compliant(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import os

                def collect(root, names):
                    unique = set(names)
                    ordered = sorted(unique)
                    listed = sorted(os.listdir(root))
                    nested = sorted(str(p) for p in root.glob("x*"))
                    count = len({n for n in names})
                    total = sum(x for x in unique)
                    return ordered, listed, nested, count, total
                """
            },
            rule="DET003",
        )
        assert findings == []

    def test_pragma_suppresses_order_free_loop(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                def visit(pending):
                    seen = set(pending)
                    # lint: allow[DET003] -- fixture: order-free marking
                    for item in seen:
                        item.mark()
                """
            },
            rule="DET003",
        )
        assert findings == []


class TestDET004BuiltinHash:
    def test_flags_hash_of_str_literal_and_fstring(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                seed = hash("Mae-East") & 0xFFFF
                salted = hash(f"shard-{seed}")
                """
            },
            rule="DET004",
        )
        assert {f.line for f in findings} == {2, 3}

    def test_flags_str_via_annotation(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                def seed_for(name: str) -> int:
                    return hash(name) & 0xFFFF
                """
            },
            rule="DET004",
        )
        assert len(findings) == 1
        assert "PYTHONHASHSEED" in findings[0].message

    def test_int_tuple_hashes_are_compliant(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                def seed_for(pair, n: int) -> int:
                    return hash(pair) ^ hash((n, 3))
                """
            },
            rule="DET004",
        )
        assert findings == []

    def test_flags_tuple_with_textual_element(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                def seed_for(name: str, n: int) -> int:
                    return hash((name, n)) & 0xFFFF
                """
            },
            rule="DET004",
        )
        assert len(findings) == 1
        assert "tuple" in findings[0].message
        assert "PYTHONHASHSEED" in findings[0].message

    def test_flags_nested_tuple_with_str_literal(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                salted = hash((1, ("Mae-East", 2)))
                """
            },
            rule="DET004",
        )
        assert len(findings) == 1

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                def cache_slot(key: str) -> int:
                    # lint: allow[DET004] -- fixture: in-process only
                    return hash(key) % 64
                """
            },
            rule="DET004",
        )
        assert findings == []


class TestHOT001Slots:
    def test_flags_unslotted_class_in_hot_module(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "repro/core/state.py": """
                class RouteState:
                    def __init__(self):
                        self.reachable = False
                """
            },
            rule="HOT001",
        )
        assert len(findings) == 1
        assert "RouteState" in findings[0].message

    def test_slots_and_dataclass_slots_are_compliant(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "repro/core/state.py": """
                from dataclasses import dataclass
                from enum import Enum


                class Kind(Enum):
                    A = 1


                class LookupError2(ValueError):
                    pass


                class Packed:
                    __slots__ = ("x",)


                @dataclass(frozen=True, slots=True)
                class Record:
                    x: int
                """
            },
            rule="HOT001",
        )
        assert findings == []

    def test_cold_modules_are_out_of_scope(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "repro/analysis/free.py": """
                class Anything:
                    pass
                """
            },
            rule="HOT001",
        )
        assert findings == []

    def test_session_layer_is_in_scope(self, tmp_path):
        unslotted = """
        class Entered:
            pass
        """
        findings = lint_snippets(
            tmp_path,
            {
                "repro/bgp/session.py": unslotted,
                "repro/bgp/fsm.py": unslotted,
                "repro/bgp/policy.py": unslotted,
            },
            rule="HOT001",
        )
        assert sorted(f.path for f in findings) == [
            "repro/bgp/fsm.py",
            "repro/bgp/session.py",
        ]

    def test_pragma_suppresses(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "repro/core/state.py": """
                # lint: allow[HOT001] -- fixture: instantiated once
                class Singleton:
                    pass
                """
            },
            rule="HOT001",
        )
        assert findings == []


class TestMRG001MergeRegistry:
    def test_flags_unregistered_add(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "campaign/results.py": """
                from dataclasses import dataclass, field


                @dataclass
                class Partial:
                    records: int = 0

                    def __add__(self, other):
                        return Partial(records=self.records + other.records)

                    __radd__ = __add__
                """
            },
            rule="MRG001",
        )
        assert len(findings) == 1
        assert "COMMUTATIVE_MERGES" in findings[0].message

    def test_flags_field_missing_from_add(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "campaign/results.py": """
                from dataclasses import dataclass, field


                @dataclass
                class Partial:
                    records: int = 0
                    dropped: int = 0

                    def __add__(self, other):
                        return Partial(records=self.records + other.records)

                    __radd__ = __add__


                COMMUTATIVE_MERGES = (Partial,)
                """
            },
            rule="MRG001",
        )
        assert len(findings) == 1
        assert "dropped" in findings[0].message

    def test_flags_missing_radd(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "campaign/results.py": """
                from dataclasses import dataclass, field


                @dataclass
                class Partial:
                    records: int = 0

                    def __add__(self, other):
                        return Partial(records=self.records + other.records)


                COMMUTATIVE_MERGES = (Partial,)
                """
            },
            rule="MRG001",
        )
        assert len(findings) == 1
        assert "__radd__" in findings[0].message

    def test_registered_and_complete_is_compliant(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "campaign/results.py": """
                from dataclasses import dataclass, field


                @dataclass
                class Partial:
                    records: int = 0
                    tallies: dict = field(default_factory=dict)

                    def __add__(self, other):
                        merged = dict(self.tallies)
                        for key, value in other.tallies.items():
                            merged[key] = merged.get(key, 0) + value
                        return Partial(
                            records=self.records + other.records,
                            tallies=merged,
                        )

                    __radd__ = __add__


                COMMUTATIVE_MERGES = (Partial,)
                """
            },
            rule="MRG001",
        )
        assert findings == []

    def test_other_modules_are_out_of_scope(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "analysis/series.py": """
                class Series:
                    def __add__(self, other):
                        return other
                """
            },
            rule="MRG001",
        )
        assert findings == []


class TestLINT000Pragmas:
    def test_malformed_pragma(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {"mod.py": "x = 1  # lint: allowDET001 oops\n"},
        )
        assert [f.rule for f in findings] == ["LINT000"]
        assert "malformed" in findings[0].message

    def test_justification_is_required(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import random
                random.random()  # lint: allow[DET001]
                """
            },
        )
        rules = sorted(f.rule for f in findings)
        # The grant is refused AND the violation it aimed at still fires.
        assert rules == ["DET001", "LINT000"]
        assert "justification" in findings[0].message or (
            "justification" in findings[1].message
        )

    def test_unknown_rule_id(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {"mod.py": "x = 1  # lint: allow[ZZZ999] -- because\n"},
        )
        assert [f.rule for f in findings] == ["LINT000"]
        assert "ZZZ999" in findings[0].message

    def test_stale_pragma(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                # lint: allow[DET001] -- nothing here draws randomness
                x = 1
                """
            },
        )
        assert [f.rule for f in findings] == ["LINT000"]
        assert "stale" in findings[0].message

    def test_used_pragma_is_not_stale(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {
                "mod.py": """
                import random
                # lint: allow[DET001] -- fixture justification
                random.random()
                """
            },
        )
        assert findings == []

    def test_pragma_inside_string_is_ignored(self, tmp_path):
        findings = lint_snippets(
            tmp_path,
            {"mod.py": 'doc = "# lint: allow[DET001] -- not a comment"\n'},
        )
        assert findings == []


def run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.fixture
def fixture_repo(tmp_path):
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("class Unslotted:\n    pass\n")
    return tmp_path


class TestCli:
    def test_exit_one_and_json_schema_on_findings(self, fixture_repo):
        result = run_cli(["--json"], cwd=fixture_repo)
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["schema"] == 2
        assert report["counts"] == {"HOT001": 1}
        assert report["suppressed"] == 0
        (finding,) = report["findings"]
        assert finding["rule"] == "HOT001"
        assert finding["path"] == "src/repro/core/bad.py"
        assert finding["line"] == 1
        assert finding["snippet"] == "class Unslotted:"
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "snippet",
        }

    def test_exit_zero_when_clean(self, fixture_repo):
        (fixture_repo / "src" / "repro" / "core" / "bad.py").write_text(
            "class Packed:\n    __slots__ = ()\n"
        )
        result = run_cli([], cwd=fixture_repo)
        assert result.returncode == 0
        assert "0 new finding(s)" in result.stdout

    def test_output_writes_report_file(self, fixture_repo):
        result = run_cli(
            ["--output", "report.json"], cwd=fixture_repo
        )
        assert result.returncode == 1
        report = json.loads((fixture_repo / "report.json").read_text())
        assert report["counts"] == {"HOT001": 1}

    def test_usage_error_exit_two(self, tmp_path):
        result = run_cli(["--root", "does-not-exist"], cwd=tmp_path)
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "flag",
        [
            ["--jobs", "2"],
            ["--cache", "c.json"],
            ["--no-cache"],
            ["--baseline", "b.json"],
            ["--fix-baseline"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_removed_flags_are_rejected(self, tmp_path, flag):
        # One execution mode: the cache / pool / baseline knobs are
        # gone and must not drift back.
        result = run_cli(flag, cwd=tmp_path)
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr

    def test_list_rules_names_all_fourteen(self, tmp_path):
        result = run_cli(["--list-rules"], cwd=tmp_path)
        assert result.returncode == 0
        listed = [
            line.split()[0]
            for line in result.stdout.splitlines()
            if not line.startswith(" ")
        ]
        # Exact, ordered: a dropped, renamed, or added id fails here.
        assert listed == [
            "CON001", "DET001", "DET002", "DET003", "DET004",
            "DET101", "DET102", "DET103", "DET104", "DET105",
            "HOT001", "LINT000", "MRG001", "PRO001",
        ]


class TestRepoIsClean:
    """The tier-1 gate: the repo at HEAD lints clean."""

    def test_src_and_tests_have_no_findings(self, repo_lint_report):
        report = repo_lint_report
        assert report.files > 100, "gate is not seeing the repo"
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
