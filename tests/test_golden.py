"""The golden corpus (tests/golden/ + repro.verify.golden).

The committed corpus must keep verifying against the working tree, and
regeneration must be byte-stable — two consecutive ``--write`` runs
produce identical bytes, so an unchanged tree regenerates to a no-op
diff and any semantic change shows up as a reviewable corpus diff.
"""

import io
import json
import shutil
import struct
from pathlib import Path

import pytest

from repro.collector import mrt
from repro.sim.scenarios import DAY_SCENARIOS, SCENARIOS
from repro.verify import golden
from repro.verify.golden import (
    CASES_FILE,
    TRACE_FILE,
    check_golden,
    main,
    write_golden,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def built():
    """One build of the corpus from the working tree: every scenario on
    both engines makes a build cost seconds, so the tests share it."""
    return golden.build_golden()


@pytest.fixture
def reuse_build(built, monkeypatch):
    """``check_golden`` compares against the shared build instead of
    rebuilding the same tree."""
    monkeypatch.setattr(golden, "build_golden", lambda: built)


@pytest.fixture(scope="session")
def built_corpus(built, tmp_path_factory):
    """That build written out, shared by the tests that read it; a
    test that doctors it doctors a copy."""
    directory = tmp_path_factory.mktemp("golden-built")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(golden, "build_golden", lambda: built)
        write_golden(directory)
    return directory


@pytest.fixture
def corpus_copy(built_corpus, tmp_path):
    """This test's own copy of the regenerated corpus."""
    for name in (CASES_FILE, TRACE_FILE):
        shutil.copyfile(built_corpus / name, tmp_path / name)
    return tmp_path


def test_committed_corpus_verifies(reuse_build):
    problems = check_golden(GOLDEN_DIR)
    assert problems == []


def test_regeneration_is_byte_stable(built_corpus, tmp_path):
    """A fresh ``write_golden`` (its own build) against the session's
    build: two independent regenerations, byte for byte."""
    write_golden(tmp_path)
    for name in (CASES_FILE, TRACE_FILE):
        assert (tmp_path / name).read_bytes() == (
            built_corpus / name
        ).read_bytes()


def test_regenerating_committed_corpus_is_a_noop(built_corpus):
    for name in (CASES_FILE, TRACE_FILE):
        assert (
            (built_corpus / name).read_bytes()
            == (GOLDEN_DIR / name).read_bytes()
        ), f"{name}: committed corpus is stale (run --write and commit)"


def test_committed_trace_decodes_to_frozen_classification():
    cases = json.loads((GOLDEN_DIR / CASES_FILE).read_text())
    trace = (GOLDEN_DIR / TRACE_FILE).read_bytes()
    decoded = list(mrt.read_records(io.BytesIO(trace)))
    assert len(decoded) == cases["trace"]["records"]


def test_check_flags_a_doctored_corpus(corpus_copy, reuse_build):
    cases_path = corpus_copy / CASES_FILE
    cases = json.loads(cases_path.read_text())
    cases["campaign"]["digest"] = "0" * 64
    cases_path.write_text(json.dumps(cases, indent=2, sort_keys=True))
    problems = check_golden(corpus_copy)
    assert any("campaign" in problem for problem in problems)


def test_check_flags_a_corrupted_trace(corpus_copy, reuse_build):
    trace_path = corpus_copy / TRACE_FILE
    trace_path.write_bytes(trace_path.read_bytes()[:-4])
    problems = check_golden(corpus_copy)
    assert any(TRACE_FILE in problem for problem in problems)


def test_check_reports_missing_corpus(tmp_path):
    problems = check_golden(tmp_path / "nowhere")
    assert problems and "--write" in problems[0]


def test_cli_check_and_write(tmp_path, capsys):
    assert main(["--write", "--dir", str(tmp_path)]) == 0
    assert main(["--check", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "golden corpus OK" in out


def test_build_golden_covers_all_sections(built_corpus):
    payload = json.loads((built_corpus / CASES_FILE).read_text())
    trace = (built_corpus / TRACE_FILE).read_bytes()
    assert set(payload) == {
        "schema", "streams", "detection", "scenarios", "trace",
        "campaign", "figures",
    }
    assert len(payload["streams"]) == 9  # 5 fuzz seeds + 4 adversarial
    # detection adds the 4 detection-tier generators to those 9
    assert len(payload["detection"]) == 13
    # one per registered scenario, each day-family one with detection
    assert len(payload["scenarios"]) == len(SCENARIOS)
    assert sum(
        "detection_counts" in case for case in payload["scenarios"]
    ) == len(DAY_SCENARIOS)
    # an RFC 6396 BGP4MP_ET (type 17) MESSAGE (subtype 1) frame
    assert struct.unpack_from(">4xHH", trace) == (17, 1)


def test_check_flags_a_doctored_detection_case(corpus_copy, reuse_build):
    cases_path = corpus_copy / CASES_FILE
    cases = json.loads(cases_path.read_text())
    cases["detection"][0]["digest"] = "f" * 64
    cases_path.write_text(json.dumps(cases, indent=2, sort_keys=True))
    problems = check_golden(corpus_copy)
    assert any("detection" in problem for problem in problems)


@pytest.mark.parametrize("name, field", [
    ("multi_exchange_day", "detection_counts"),
    ("ablation_damping", "digest"),
])
def test_check_flags_a_doctored_scenario_case(
    corpus_copy, reuse_build, name, field
):
    cases_path = corpus_copy / CASES_FILE
    cases = json.loads(cases_path.read_text())
    case = next(c for c in cases["scenarios"] if c["scenario"] == name)
    if field == "digest":
        case["digest"] = "0" * 64
    else:
        case["detection_counts"]["moas_conflict"] = 10**6
    cases_path.write_text(json.dumps(cases, indent=2, sort_keys=True))
    problems = check_golden(corpus_copy)
    assert any(f"scenario {name}" in problem for problem in problems)


def test_scenario_cases_cover_every_attack_kind():
    from repro.sim.adversary import ATTACK_KINDS

    cases = json.loads((GOLDEN_DIR / CASES_FILE).read_text())
    frozen = {case["scenario"] for case in cases["scenarios"]}
    assert frozen == {name for name, _ in SCENARIOS}
    assert set(ATTACK_KINDS) <= frozen
    # every attack's signature flag is non-zero in its frozen counts
    signatures = {
        "hijack_moas": "moas_conflict",
        "hijack_subprefix": "subprefix_foreign",
        "route_leak": "valley_violation",
        "path_forgery": "forged_edge",
        "deagg_storm": "subprefix_deagg",
    }
    for case in cases["scenarios"]:
        if case["scenario"] not in ATTACK_KINDS:
            continue
        flag = signatures[case["scenario"]]
        assert case["detection_counts"][flag] > 0, case["scenario"]
