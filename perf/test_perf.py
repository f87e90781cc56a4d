"""Checks on the benchmark itself.  Run as ``python -m pytest perf -q``
(tier-1's ``testpaths`` does not collect this directory).

One smoke-scale pass over all six workloads, traced, feeds most
assertions; smoke numbers are only ever looked at for shape, never
recorded.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from compare import verdict
from layers import PER_LAYER
from workloads import WORKLOADS

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The names later issues cite.
WORKLOAD_NAMES = [
    "campaign_mem",
    "campaign_spill_w2",
    "campaign_refold",
    "archive_ingest",
    "sim_timers",
    "sim_exchange_day",
]
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}


def run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perf" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    started = time.perf_counter()
    proc = run_py("--scale", "smoke", "--trace", "--out", str(out))
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text()), elapsed


def test_smoke_pass_is_quick_and_clean(smoke):
    result, elapsed = smoke
    assert elapsed < 60
    assert list(result["workloads"]) == WORKLOAD_NAMES
    for name, workload in result["workloads"].items():
        assert workload["ops_attempted"] > 0, name
        assert workload["ops_failed"] == 0, (name, workload["failures"])


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOAD_NAMES
    assert list(WORKLOADS) == WORKLOAD_NAMES
    assert all(w["why"] for w in SPEC["workloads"])
    assert {
        m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]
    } == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == list(PER_LAYER)
    assert SPEC["paths"] == ["perf"]


def test_result_schema(smoke):
    result, _ = smoke
    environment = result["environment"]
    for key in ("git_commit", "nproc", "affinity", "python", "numpy",
                "loadavg_1m_at_start", "seed", "min_repeats", "scale"):
        assert key in environment
    for name, workload in result["workloads"].items():
        assert workload["sizes"] == WORKLOADS[name].sizes["smoke"]
        for metric, (unit, better) in END_TO_END.items():
            row = workload["end_to_end"][metric]
            assert (row["unit"], row["better"]) == (unit, better)
            assert row["n"] >= 5 and len(row["values"]) == row["n"]
            assert row["min"] <= row["median"] <= row["max"]
            assert row["value"] in (row["min"], row["max"])
            assert row["value"] > 0 and 0 < row["bound"] <= 0.25
        assert list(workload["per_layer"]) == [n for n, _, _ in PER_LAYER]
    assert "spill_bytes" in result["workloads"]["campaign_spill_w2"]


def test_traced_layers_account_for_the_traced_wall(smoke):
    result, _ = smoke
    for name, workload in result["workloads"].items():
        layers = {k: v["value"] for k, v in workload["per_layer"].items()}
        assert layers["harness.unattributed_share"] <= 0.10, name
    layers = result["workloads"]["campaign_refold"]["per_layer"]
    assert layers["workloads.generator.rows"]["value"] == 0
    assert layers["core.spill.read_bytes"]["value"] > 0
    layers = result["workloads"]["campaign_mem"]["per_layer"]
    assert layers["core.spill.write_bytes"]["value"] == 0
    assert layers["workloads.generator.rows"]["value"] > 0


def test_wrong_expected_digest_fails_the_run(tmp_path):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({
        "seed": 17,
        "scale": "smoke",
        "digests": {"sim_timers": {"sim": "0" * 64}},
    }))
    proc = run_py("--workload", "sim_timers", "--scale", "smoke",
                  "--seed", "17", "--pins", str(pins))
    assert proc.returncode != 0
    line = json.loads(proc.stdout.splitlines()[-1])
    assert line["failed"] > 0 and line["correct"] is False
    assert set(line["metrics"]) == set(END_TO_END)


def test_without_the_program_it_refuses(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/ there is
    nothing to measure: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_py("--workload", "sim_timers", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _row(values, better="lower", bound=0.1):
    return {"values": values, "better": better, "bound": bound}


def test_compare_verdicts():
    base = _row([1.00, 1.01, 1.02, 1.30, 1.40, 1.50])
    assert verdict(base, _row([1.01, 1.00, 1.03, 1.2, 1.6, 1.3])) == \
        "unchanged"
    assert verdict(base, _row([1.20, 1.21, 1.22, 1.5, 1.6, 1.7])) == \
        "regressed"
    assert verdict(base, _row([0.80, 0.81, 0.82, 0.99, 1.1, 1.2])) == \
        "improved"
    noisy = _row([1.00, 1.15, 1.30, 1.5, 1.6, 1.7])
    assert verdict(noisy, _row([1.05, 1.20, 1.35, 1.5, 1.6, 1.7])) == \
        "unresolved"
    higher = _row([100.0, 99.0, 98.0, 80.0, 70.0, 60.0], better="higher")
    assert verdict(higher, _row([85.0, 84.0, 83.0, 70.0, 60.0, 50.0],
                                better="higher")) == "regressed"
