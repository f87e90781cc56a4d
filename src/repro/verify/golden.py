"""The golden corpus: frozen expected outputs under ``tests/golden/``.

The corpus pins five layers of behavior to committed history:

- **classifier cases** — seeded fuzz and adversarial streams with
  frozen reference counts, stream digests, and end-of-stream state
  digests;
- **a committed binary trace** (``trace-small.mrt``) with its file
  digest and classification, so the wire codec and the classifier are
  pinned together;
- **campaign + figure cases** — a small campaign's merged
  PartialResult digest and the Figure 2/8 series checksums;
- **detection cases** — the same streams plus the detection-tier
  generators, with frozen per-flag counts, detection digests, and
  detector state digests (under the shared
  :func:`~repro.verify.streams.detection_topology`);
- **scenarios** — every registered scenario's smoke events and
  digest, on the calendar and reference engines (equal digests are
  asserted at build time).  A day-family scenario (the plain and
  cross-exchange days and the adversarial pack) is re-run on the
  parallel driver at 1 and 2 workers too (all must agree, so
  ``--check`` enforces worker-count invariance) and adds its frozen
  detection counts and digest.

``python -m repro.verify.golden --write`` regenerates the corpus
(byte-stable: regeneration from an unchanged tree is a no-op diff);
``--check`` verifies the working tree against it.  Any intentional
semantic change regenerates the corpus in the same commit, so the
diff shows exactly which frozen outputs moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from ..analysis.detection import detect_records_columnar
from ..analysis.interarrival import histogram_counts, interarrival_times
from ..analysis.timeseries import bin_records
from ..campaign import CampaignConfig, run_campaign
from ..collector import mrt
from ..core.columns import RecordColumns, classify_columns
from ..sim.adversary import scenario_relationships
from ..sim.engine import Engine
from ..sim.scenarios import (
    DAY_SCENARIOS,
    SCENARIOS,
    day_scenario_config,
    run_exchange_day_records,
    simulate,
)
from .differential import columnar_labels, stream_digest
from .reference import reference_counts, reference_interarrival_histogram
from .streams import (
    ADVERSARIAL_GENERATORS,
    DETECTION_GENERATORS,
    FuzzStream,
    detection_topology,
    fuzz_stream,
)

__all__ = ["build_golden", "check_golden", "write_golden", "main"]

CASES_FILE = "cases.json"
TRACE_FILE = "trace-small.mrt"

SCHEMA_VERSION = 2

#: The seeds whose fuzz streams are frozen (arbitrary but committed).
FUZZ_SEEDS = (1, 2, 3, 4, 5)
ADVERSARIAL_SEED = 7
TRACE_SEED = 99
FIGURE_SEED = 1

#: The frozen campaign (small enough to run in seconds, sharded so the
#: merge path is covered).
CAMPAIGN = CampaignConfig(
    days=2, seed=5, n_peers=6, total_prefixes=160, shards=2
)


def _golden_streams() -> List[FuzzStream]:
    streams = [fuzz_stream(seed) for seed in FUZZ_SEEDS]
    for name in sorted(ADVERSARIAL_GENERATORS):
        streams.append(ADVERSARIAL_GENERATORS[name](ADVERSARIAL_SEED))
    return streams


def _detection_streams() -> List[FuzzStream]:
    """The detection corpus: every classifier stream plus the four
    detection-tier generators (MOAS churn, sub-prefix overlap, valley
    paths, origin flips)."""
    streams = _golden_streams()
    for name in sorted(DETECTION_GENERATORS):
        streams.append(DETECTION_GENERATORS[name](ADVERSARIAL_SEED))
    return streams


def _detection_case(stream: FuzzStream, topology) -> Dict:
    result = detect_records_columnar(stream.records, topology)
    return {
        "name": stream.name,
        "seed": stream.seed,
        "records": len(stream.records),
        "counts": result.counts,
        "digest": result.digest(stream.records),
        "state_digest": result.detector.state_digest(),
    }


def _scenario_case(name: str) -> Dict:
    """One registered scenario at the smoke preset: its events and
    digest, equal on the calendar and reference engines and, for a
    day-family scenario, on the parallel driver at 1 and 2 workers
    (build-time assertions, so a regression cannot even regenerate the
    corpus), plus a day's detection verdict on its merged records."""
    others = [simulate(name, engine="reference", smoke=True)]
    if name in DAY_SCENARIOS:
        config = day_scenario_config(name, smoke=True)
        events, digest, records = run_exchange_day_records(Engine, config)
        others += [
            simulate(name, engine="parallel", workers=workers, smoke=True)
            for workers in (1, 2)
        ]
    else:
        calendar = simulate(name, smoke=True)
        events, digest = calendar.events, calendar.digest
    for other in others:
        assert (other.events, other.digest) == (events, digest), (
            f"{name}: {other.engine} workers={other.workers} gives "
            f"{other.events} events, digest {other.digest}; the calendar "
            f"engine {events}, {digest}"
        )
    case = {"scenario": name, "events": events, "digest": digest}
    if name in DAY_SCENARIOS:
        detection = detect_records_columnar(
            records, scenario_relationships(config)
        )
        case.update(
            records=len(records),
            detection_counts=detection.counts,
            detection_digest=detection.digest(records),
        )
    return case


def _stream_case(stream: FuzzStream) -> Dict:
    labels, state = columnar_labels(stream.records)
    return {
        "name": stream.name,
        "seed": stream.seed,
        "records": len(stream.records),
        "counts": reference_counts(stream.records),
        "digest": stream_digest(stream.records, labels),
        "state_digest": state,
    }


def _trace_bytes() -> bytes:
    stream = fuzz_stream(TRACE_SEED, n_records=60)
    buffer = io.BytesIO()
    mrt.write_records(buffer, stream.records)
    return buffer.getvalue()


def _figure_case() -> Dict:
    stream = fuzz_stream(FIGURE_SEED)
    columns = RecordColumns.from_records(stream.records)
    codes, _ = classify_columns(columns)
    bins = bin_records(columns, bin_width=600.0).tolist()
    histogram = histogram_counts(interarrival_times(columns)).tolist()
    payload = {
        "seed": FIGURE_SEED,
        "bin_counts": [int(count) for count in bins],
        "interarrival": [int(count) for count in histogram],
    }
    # The naive oracle computes the same Figure 8 histogram; freezing
    # the agreement pins the analysis layer to the paper's semantics.
    assert payload["interarrival"] == reference_interarrival_histogram(
        stream.records
    ), "analysis interarrival disagrees with the reference oracle"
    return payload


def build_golden() -> Tuple[Dict, bytes]:
    """The golden payload and trace bytes, fully determined by code."""
    trace = _trace_bytes()
    decoded = list(mrt.read_records(io.BytesIO(trace)))
    labels, state = columnar_labels(decoded)
    campaign = run_campaign(CAMPAIGN)
    topology = detection_topology()
    payload = {
        "schema": SCHEMA_VERSION,
        "streams": [
            _stream_case(stream) for stream in _golden_streams()
        ],
        "detection": [
            _detection_case(stream, topology)
            for stream in _detection_streams()
        ],
        "scenarios": [_scenario_case(name) for name, _ in SCENARIOS],
        "trace": {
            "file": TRACE_FILE,
            "sha256": hashlib.sha256(trace).hexdigest(),
            "records": len(decoded),
            "counts": reference_counts(decoded),
            "digest": stream_digest(decoded, labels),
            "state_digest": state,
        },
        "campaign": {
            "config": CAMPAIGN.to_payload(),
            "fingerprint": CAMPAIGN.fingerprint(),
            "records": campaign.partial.records,
            "digest": campaign.partial.digest(),
        },
        "figures": _figure_case(),
    }
    return payload, trace


def write_golden(directory) -> Path:
    """(Re)generate the corpus under ``directory``; returns the cases
    path.  Output is byte-stable: running twice writes identical
    bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload, trace = build_golden()
    (directory / TRACE_FILE).write_bytes(trace)
    cases = directory / CASES_FILE
    cases.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return cases


def check_golden(directory) -> List[str]:
    """Compare the working tree against the corpus; returns mismatch
    descriptions (empty list = everything frozen still holds)."""
    directory = Path(directory)
    cases = directory / CASES_FILE
    if not cases.exists():
        return [f"missing {cases} (run --write to create the corpus)"]
    frozen = json.loads(cases.read_text())
    payload, trace = build_golden()
    problems: List[str] = []
    if frozen.get("schema") != payload["schema"]:
        problems.append(
            f"schema {frozen.get('schema')!r} != {payload['schema']!r}"
        )
        return problems
    trace_path = directory / TRACE_FILE
    if not trace_path.exists():
        problems.append(f"missing {trace_path}")
    elif trace_path.read_bytes() != trace:
        problems.append(
            f"{TRACE_FILE} on disk differs from regenerated bytes"
        )
    for section in ("trace", "campaign", "figures"):
        if frozen.get(section) != payload[section]:
            problems.append(
                f"{section}: frozen {frozen.get(section)!r} "
                f"!= current {payload[section]!r}"
            )
    keyed_sections = (
        ("streams", "stream", lambda c: (c.get("name"), c.get("seed"))),
        ("detection", "detection", lambda c: (c.get("name"), c.get("seed"))),
        ("scenarios", "scenario", lambda c: c.get("scenario")),
    )
    for section, label, key_of in keyed_sections:
        frozen_cases = {
            key_of(case): case for case in frozen.get(section, [])
        }
        for case in payload[section]:
            key = key_of(case)
            if key not in frozen_cases:
                problems.append(
                    f"{label} {key}: missing from frozen corpus"
                )
            elif frozen_cases[key] != case:
                problems.append(
                    f"{label} {key}: frozen {frozen_cases[key]!r} "
                    f"!= current {case!r}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate or verify the golden corpus."
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--write", action="store_true", help="regenerate the corpus"
    )
    action.add_argument(
        "--check", action="store_true", help="verify against the corpus"
    )
    parser.add_argument(
        "--dir", default="tests/golden", help="corpus directory"
    )
    args = parser.parse_args(argv)
    if args.write:
        cases = write_golden(args.dir)
        print(f"wrote {cases}")
        return 0
    problems = check_golden(args.dir)
    for problem in problems:
        print(f"GOLDEN MISMATCH: {problem}", file=sys.stderr)
    if not problems:
        print("golden corpus OK")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
