"""Tier-1 draws no fresh randomness: Hypothesis examples are derived
from each test's source, and no example database carries state from one
run to the next.

The repo is linted once per session: every test that audits the tree
reads the same :func:`repo_lint_report`."""

from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")

ROOT = Path(__file__).parent.parent


@pytest.fixture(scope="session")
def repo_lint_report():
    """``repro.lint`` with every rule over ``src`` and ``tests``."""
    from repro.lint import LintEngine

    return LintEngine(ROOT).lint_paths([ROOT / "src", ROOT / "tests"])
