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
from repro.verify.golden import (
    CASES_FILE,
    TRACE_FILE,
    check_golden,
    main,
    write_golden,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def built_corpus(tmp_path_factory):
    """One corpus regenerated from the working tree, shared by the
    tests that read it; a test that doctors it doctors a copy."""
    directory = tmp_path_factory.mktemp("golden-built")
    write_golden(directory)
    return directory


@pytest.fixture
def corpus_copy(built_corpus, tmp_path):
    """This test's own copy of the regenerated corpus."""
    for name in (CASES_FILE, TRACE_FILE):
        shutil.copyfile(built_corpus / name, tmp_path / name)
    return tmp_path


def test_committed_corpus_verifies():
    problems = check_golden(GOLDEN_DIR)
    assert problems == []


def test_regeneration_is_byte_stable(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    write_golden(first)
    write_golden(second)
    for name in (CASES_FILE, TRACE_FILE):
        assert (first / name).read_bytes() == (second / name).read_bytes()


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


def test_check_flags_a_doctored_corpus(corpus_copy):
    cases_path = corpus_copy / CASES_FILE
    cases = json.loads(cases_path.read_text())
    cases["campaign"]["digest"] = "0" * 64
    cases_path.write_text(json.dumps(cases, indent=2, sort_keys=True))
    problems = check_golden(corpus_copy)
    assert any("campaign" in problem for problem in problems)


def test_check_flags_a_corrupted_trace(corpus_copy):
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
    assert len(payload["scenarios"]) == 5  # one per attack kind
    # an RFC 6396 BGP4MP_ET (type 17) MESSAGE (subtype 1) frame
    assert struct.unpack_from(">4xHH", trace) == (17, 1)


def test_check_flags_a_doctored_detection_case(corpus_copy):
    cases_path = corpus_copy / CASES_FILE
    cases = json.loads(cases_path.read_text())
    cases["detection"][0]["digest"] = "f" * 64
    cases_path.write_text(json.dumps(cases, indent=2, sort_keys=True))
    problems = check_golden(corpus_copy)
    assert any("detection" in problem for problem in problems)


def test_check_flags_a_doctored_scenario_case(corpus_copy):
    cases_path = corpus_copy / CASES_FILE
    cases = json.loads(cases_path.read_text())
    cases["scenarios"][0]["detection_counts"]["moas_conflict"] = 10**6
    cases_path.write_text(json.dumps(cases, indent=2, sort_keys=True))
    problems = check_golden(corpus_copy)
    assert any("scenario" in problem for problem in problems)


def test_scenario_cases_cover_every_attack_kind():
    from repro.sim.adversary import ATTACK_KINDS

    cases = json.loads((GOLDEN_DIR / CASES_FILE).read_text())
    frozen = {case["scenario"] for case in cases["scenarios"]}
    assert frozen == set(ATTACK_KINDS)
    # every attack's signature flag is non-zero in its frozen counts
    signatures = {
        "hijack_moas": "moas_conflict",
        "hijack_subprefix": "subprefix_foreign",
        "route_leak": "valley_violation",
        "path_forgery": "forged_edge",
        "deagg_storm": "subprefix_deagg",
    }
    for case in cases["scenarios"]:
        flag = signatures[case["scenario"]]
        assert case["detection_counts"][flag] > 0, case["scenario"]
