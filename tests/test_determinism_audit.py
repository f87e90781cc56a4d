"""Static determinism audit of ``src/repro`` — now AST-powered.

Historically this file carried a regex scanner for global ``random.*``
calls and wall-clock reads.  The scanner body moved into the
``repro.lint`` subsystem (DET001/DET002 and friends), which sees
scopes, import aliases, and iteration order that regexes cannot:
``from random import randint as ri`` is caught, a pattern inside a
string literal is not.  The old test names survive so any tooling or
muscle memory pointing here still runs the (now stronger) checks;
``tests/test_lint.py`` holds the full-repo gate and the per-rule
fixture tests.
"""

from pathlib import Path

from repro.lint import LintEngine, all_rules

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"


def _findings(report, rule_id):
    """``rule_id``'s findings under ``src/repro`` in the session's one
    lint report of the repo."""
    assert report.files > 30, "audit is not seeing the source tree"
    return [
        f
        for f in report.findings
        if f.rule == rule_id and f.path.startswith("src/repro/")
    ]


def test_no_module_level_random_calls(repo_lint_report):
    findings = _findings(repo_lint_report, "DET001")
    assert not findings, (
        "module-level random.* calls found (use a seeded "
        "random.Random instance):\n"
        + "\n".join(f.render() for f in findings)
    )


def test_wall_clock_only_in_pragma_justified_display_code(repo_lint_report):
    # The old WALL_CLOCK_ALLOWLIST table became inline pragmas with
    # justifications (`# lint: allow[DET002] -- ...`), checked for
    # staleness by LINT000 instead of a bespoke test here.
    findings = _findings(repo_lint_report, "DET002")
    assert not findings, (
        "wall-clock reads without a justified display-only pragma "
        "(results must be functions of seeds, not real time):\n"
        + "\n".join(f.render() for f in findings)
    )


def test_numpy_rng_is_seeded(tmp_path):
    # DET001 sees numpy.random: every generator in the tree is built
    # with a seed and nothing calls numpy's global stream
    # (test_no_module_level_random_calls).  That the rule would notice
    # is shown on the tree's own code: take the seed away from ssa.py's
    # generator and the same scan flags it.
    ssa = (SRC / "analysis" / "ssa.py").read_text()
    assert ssa.count("default_rng(seed)") == 1
    (tmp_path / "ssa.py").write_text(
        ssa.replace("default_rng(seed)", "default_rng()")
    )
    det001 = [rule for rule in all_rules() if rule.id == "DET001"]
    engine = LintEngine(tmp_path, rules=det001)
    findings = engine.lint_paths([tmp_path]).findings
    assert [f.rule for f in findings] == ["DET001"]
    assert "without a seed" in findings[0].message
