"""The differential runner: one production tier, one oracle, one answer.

:func:`run_differential` pipes a stream through the two independent
implementations of the paper's semantics —

1. the **reference oracle** (:mod:`repro.verify.reference`): naive
   dict-of-lists Python, the ground truth;
2. the **columnar tier**
   (:class:`~repro.core.columns.ColumnClassifier`), fed as batches cut
   at several boundary sets (one batch, the stream's own adversarial
   boundaries, a midpoint split) with one shared
   :class:`~repro.core.columns.AttributeTable` across batches —

and asserts they agree on every per-record label, on the category
counts, on the stream digest, and (across the batchings) on the
carried per-route state digest.  Any disagreement is minimized with
delta-debugging shrink (:func:`shrink_stream`) into a counterexample
small enough to read.

The tier callable is injectable, so a test can hand in a broken
classifier and watch the harness catch and shrink it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.detection import detect_records_columnar, detection_digest
from ..core.columns import (
    AttributeTable,
    CATEGORY_OF_CODE,
    ColumnClassifier,
    RecordColumns,
)
from ..topology.relationships import AsRelationships
from .reference import (
    DETECTION_FLAGS,
    reference_classify,
    reference_counts,
    reference_detect,
    reference_detection_counts,
    reference_detection_digest,
)
from .streams import FuzzStream

__all__ = [
    "DifferentialMismatch",
    "DifferentialReport",
    "run_differential",
    "run_detection_differential",
    "shrink_stream",
    "stream_digest",
    "columnar_labels",
    "columnar_detection",
]

#: A tier's verdict on a stream: per-record ``(category name, policy)``
#: labels plus the classifier's end-of-stream state digest (None for
#: an injected stand-in that opts out).
Labels = List[Tuple[str, bool]]
TierRun = Tuple[Labels, Optional[str]]
ColumnTier = Callable[[Sequence, Sequence[int]], TierRun]


def stream_digest(records: Sequence, labels: Labels) -> str:
    """SHA-256 over a labeled stream; the same rendering as
    :func:`~repro.verify.reference.reference_digest`, so the tier's
    labels can be digested and compared against the oracle's."""
    digest = hashlib.sha256()
    for record, (category, policy) in zip(records, labels):
        line = (
            f"{record.time!r}|{record.peer_id}|{record.peer_asn}"
            f"|{record.prefix.network}/{record.prefix.length}"
            f"|{'A' if record.is_announce else 'W'}"
            f"|{category}|{int(policy)}\n"
        )
        digest.update(line.encode("ascii"))
    return digest.hexdigest()


def columnar_labels(
    records: Sequence, boundaries: Sequence[int] = ()
) -> TierRun:
    """Run the columnar tier over batches cut at ``boundaries``.

    One AttributeTable is shared by all batches and one
    ColumnClassifier carries state across them — exactly how the
    campaign layer feeds a run day by day.
    """
    cuts = sorted(
        {b for b in boundaries if 0 < b < len(records)}
    )
    edges = [0, *cuts, len(records)]
    table = AttributeTable()
    classifier = ColumnClassifier()
    labels: Labels = []
    for lo, hi in zip(edges, edges[1:]):
        batch = RecordColumns.from_records(records[lo:hi], attrs=table)
        codes, policy = classifier.classify(batch)
        labels.extend(
            (CATEGORY_OF_CODE[int(code)].name, bool(flag))
            for code, flag in zip(codes, policy)
        )
    return labels, classifier.state_digest()


def _batchings(
    n: int, boundaries: Sequence[int]
) -> List[Tuple[str, Tuple[int, ...]]]:
    """The boundary sets a stream is columnar-classified at."""
    batchings: List[Tuple[str, Tuple[int, ...]]] = [("whole", ())]
    cuts = tuple(sorted({b for b in boundaries if 0 < b < n}))
    if cuts:
        batchings.append(("given", cuts))
    if n > 1 and (n // 2,) not in (c for _, c in batchings):
        batchings.append(("midpoint", (n // 2,)))
    return batchings


def _render(record) -> str:
    return (
        f"t={record.time!r} peer={record.peer_id} "
        f"prefix={record.prefix.network}/{record.prefix.length} "
        f"{'A' if record.is_announce else 'W'}"
    )


@dataclass
class DifferentialMismatch:
    """The tier disagreeing with the reference oracle, minimized.

    ``kind`` is ``"label"`` / ``"flags"`` (a per-record divergence),
    ``"digest"`` (stream digests differ — only possible with a
    rendering bug, since labels already compared equal), ``"counts"``
    (aggregate tallies differ), or ``"state"`` (two batchings of the
    same stream ended with different carried state).
    """

    stream_name: str
    seed: int
    tier: str
    kind: str
    index: Optional[int]
    expected: object
    actual: object
    record: Optional[str] = None
    shrunk: Optional[List] = None  # minimized failing record list

    def describe(self) -> str:
        """A human-readable counterexample report (what CI uploads)."""
        lines = [
            f"stream={self.stream_name} seed={self.seed} "
            f"tier={self.tier} kind={self.kind}",
            f"expected: {self.expected!r}",
            f"actual:   {self.actual!r}",
        ]
        if self.index is not None:
            lines.append(f"first divergent record index: {self.index}")
        if self.record is not None:
            lines.append(f"record: {self.record}")
        if self.shrunk is not None:
            lines.append(f"shrunk counterexample ({len(self.shrunk)} records):")
            expected = reference_classify(self.shrunk)
            for position, record in enumerate(self.shrunk):
                lines.append(
                    f"  [{position}] {_render(record)} "
                    f"→ {expected[position][0]}"
                )
        return "\n".join(lines)


@dataclass
class DifferentialReport:
    """The outcome of a differential run over many streams."""

    streams: int = 0
    records: int = 0
    mismatches: List[DifferentialMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCH(ES)"
        return (
            f"differential: {self.streams} streams, "
            f"{self.records} records — {status}"
        )


#: One batching's verdict: ``(tier name, per-record verdicts, state
#: digest or None)``.
_Run = Tuple[str, List, Optional[str]]
#: Oracle comparison of one run: ``(kind, index, expected, actual)``
#: for the first disagreement, None when the run matches.
_Compare = Callable[
    [List], Optional[Tuple[str, Optional[int], object, object]]
]


def _first_disagreement(
    stream: FuzzStream,
    runs: Sequence[_Run],
    expected: Sequence,
    per_record_kind: str,
    compare_aggregates: _Compare,
) -> Optional[DifferentialMismatch]:
    """The first way any run departs from the oracle — per record,
    then in aggregate — or, failing that, the first pair of batchings
    whose carried state differs; None when everything agrees."""

    def mismatch(tier, kind, index, exp, act) -> DifferentialMismatch:
        return DifferentialMismatch(
            stream_name=stream.name,
            seed=stream.seed,
            tier=tier,
            kind=kind,
            index=index,
            expected=exp,
            actual=act,
            record=None if index is None else _render(stream.records[index]),
        )

    for tier, verdicts, _ in runs:
        if len(verdicts) != len(expected):
            return mismatch(
                tier, per_record_kind, None, len(expected), len(verdicts)
            )
        for index, (exp, act) in enumerate(zip(expected, verdicts)):
            if exp != act:
                return mismatch(tier, per_record_kind, index, exp, act)
        found = compare_aggregates(verdicts)
        if found is not None:
            return mismatch(tier, *found)

    # Every batching must also agree on the state it would carry into
    # a hypothetical next batch.  Runs without a state digest (an
    # injected stand-in returning None) simply opt out.
    stateful = [(tier, state) for tier, _, state in runs if state is not None]
    if stateful:
        first_tier, first_state = stateful[0]
        for tier, state in stateful[1:]:
            if state != first_state:
                return mismatch(
                    f"{tier} vs {first_tier}",
                    "state", None, first_state, state,
                )
    return None


def _first_mismatch(
    stream: FuzzStream, column_tier: ColumnTier
) -> Optional[DifferentialMismatch]:
    """Check one stream against the oracle; None when the tier agrees
    at every batching."""
    records = stream.records
    expected = reference_classify(records)
    expected_counts = reference_counts(records)
    expected_digest = stream_digest(records, expected)

    def compare_aggregates(labels: Labels):
        counts: Dict[str, int] = {}
        policy_changes = 0
        for category, policy in labels:
            counts[category] = counts.get(category, 0) + 1
            policy_changes += int(policy)
        tier_counts = {name: counts[name] for name in sorted(counts)}
        tier_counts["policy_changes"] = policy_changes
        if tier_counts != expected_counts:
            return "counts", None, expected_counts, tier_counts
        digest = stream_digest(records, labels)
        if digest != expected_digest:
            return "digest", None, expected_digest, digest
        return None

    runs = [
        (f"columnar[{name}]", *column_tier(records, cuts))
        for name, cuts in _batchings(len(records), stream.boundaries)
    ]
    return _first_disagreement(
        stream, runs, expected, "label", compare_aggregates
    )


def shrink_stream(
    records: Sequence,
    failing: Callable[[List], bool],
) -> List:
    """Delta-debugging (ddmin) minimization of a failing record list.

    ``failing(subset)`` must deterministically return True for the
    full list; the result is a sub-list that still fails and from
    which no single chunk at the final granularity can be removed.
    A final one-by-one pass polishes the result to 1-minimality.
    """
    current = list(records)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        subsets = [
            current[i:i + chunk] for i in range(0, len(current), chunk)
        ]
        reduced = False
        for subset in subsets:
            if len(subset) < len(current) and failing(subset):
                current = subset
                granularity = 2
                reduced = True
                break
        if reduced:
            continue
        for skip in range(len(subsets)):
            complement = [
                record
                for index, subset in enumerate(subsets)
                if index != skip
                for record in subset
            ]
            if len(complement) < len(current) and failing(complement):
                current = complement
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if reduced:
            continue
        if granularity >= len(current):
            break
        granularity = min(len(current), granularity * 2)
    # 1-minimality polish: drop single records while any drop fails.
    index = 0
    while index < len(current) and len(current) > 1:
        candidate = current[:index] + current[index + 1:]
        if failing(candidate):
            current = candidate
        else:
            index += 1
    return current


def _run_streams(
    streams: Iterable[FuzzStream],
    first_mismatch: Callable[[FuzzStream], Optional[DifferentialMismatch]],
    shrink: bool,
    stop_on_first: bool,
) -> DifferentialReport:
    """Check every stream, shrinking each mismatch when asked.

    Batch boundaries do not survive subsetting, so a shrinking stream
    is re-checked at every possible single cut — exhaustive but cheap
    at counterexample sizes, and it keeps cross-batch bugs failing as
    the list shrinks.
    """

    def failing(subset: List) -> bool:
        cuts = list(range(1, len(subset)))
        probe = FuzzStream("shrink", 0, list(subset), cuts)
        return first_mismatch(probe) is not None

    report = DifferentialReport()
    for stream in streams:
        report.streams += 1
        report.records += len(stream.records)
        found = first_mismatch(stream)
        if found is None:
            continue
        if shrink and failing(stream.records):
            found.shrunk = shrink_stream(stream.records, failing)
        report.mismatches.append(found)
        if stop_on_first:
            break
    return report


def run_differential(
    streams: Iterable[FuzzStream],
    column_tier: ColumnTier = columnar_labels,
    shrink: bool = True,
    stop_on_first: bool = False,
) -> DifferentialReport:
    """Check every stream against the oracle; see module docstring.

    ``column_tier`` defaults to the real implementation; tests inject
    a broken one to prove the harness catches and minimizes it.  With
    ``shrink``, each mismatch carries a ddmin-minimized counterexample.
    """
    return _run_streams(
        streams,
        lambda stream: _first_mismatch(stream, column_tier),
        shrink,
        stop_on_first,
    )


# -- the detection differential: adversarial flags vs the oracle ------------

#: The detection tier's verdict: per-record flag bitmasks plus the
#: detector's end-of-stream state digest (None for an injected
#: stand-in that opts out).
Flags = List[int]
DetectionRun = Tuple[Flags, Optional[str]]
ColumnDetectionTier = Callable[
    [Sequence, Sequence[int], Optional[AsRelationships]], DetectionRun
]


def columnar_detection(
    records: Sequence,
    boundaries: Sequence[int] = (),
    topology: Optional[AsRelationships] = None,
) -> DetectionRun:
    """Run the detection tier over batches cut at ``boundaries``, with
    one detector carrying state across batches."""
    result = detect_records_columnar(records, topology, boundaries)
    return result.flags, result.detector.state_digest()


def _first_detection_mismatch(
    stream: FuzzStream,
    topology: Optional[AsRelationships],
    column_tier: ColumnDetectionTier,
) -> Optional[DifferentialMismatch]:
    """Check one stream's detection flags against the oracle."""
    records = stream.records
    edges = topology.edges() if topology is not None else None
    expected = reference_detect(records, edges)
    expected_counts = reference_detection_counts(records, edges)
    expected_digest = reference_detection_digest(records, edges)

    def compare_aggregates(flags: Flags):
        tier_counts = {
            name: sum(1 for f in flags if f & bit)
            for bit, name in DETECTION_FLAGS
        }
        if tier_counts != expected_counts:
            return "counts", None, expected_counts, tier_counts
        digest = detection_digest(records, flags)
        if digest != expected_digest:
            return "digest", None, expected_digest, digest
        return None

    runs = [
        (f"det-columnar[{name}]", *column_tier(records, cuts, topology))
        for name, cuts in _batchings(len(records), stream.boundaries)
    ]
    return _first_disagreement(
        stream, runs, expected, "flags", compare_aggregates
    )


def run_detection_differential(
    streams: Iterable[FuzzStream],
    topology: Optional[AsRelationships] = None,
    column_tier: ColumnDetectionTier = columnar_detection,
    shrink: bool = True,
    stop_on_first: bool = False,
) -> DifferentialReport:
    """The detection analogue of :func:`run_differential`.

    Pipes every stream through
    :class:`~repro.analysis.detection.ColumnDetector` (at several batch
    cuts, one detector carrying state across batches) and the
    dependency-free :func:`~repro.verify.reference.reference_detect`
    oracle, and asserts identical per-record flag bitmasks, per-flag
    counts, detection digests, and (across the batchings) carried
    state digests.  Mismatches are ddmin-minimized exactly like the
    classifier differential.
    """
    return _run_streams(
        streams,
        lambda stream: _first_detection_mismatch(
            stream, topology, column_tier
        ),
        shrink,
        stop_on_first,
    )
