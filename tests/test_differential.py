"""The differential conformance harness (repro.verify.differential).

Two kinds of test: the real tier must agree with the reference oracle
at every batching over large seeded fuzz campaigns (including the
adversarial hard-case generators), and deliberately broken tiers must
be *caught* — with the failure minimized by ddmin shrink into a
counterexample small enough to read (the acceptance bar is ≤ 10
records).
"""

import os
from pathlib import Path

import pytest

from repro.core.columns import (
    AttributeTable,
    CATEGORY_OF_CODE,
    ColumnClassifier,
    RecordColumns,
)
from repro.verify.differential import (
    columnar_labels,
    run_differential,
    shrink_stream,
    stream_digest,
)
from repro.verify.reference import reference_classify
from repro.verify.streams import ADVERSARIAL_GENERATORS, fuzz_stream


def assert_ok(report):
    """Assert a differential report is clean; on failure, write each
    (shrunk) counterexample to $DIFFERENTIAL_ARTIFACT_DIR so CI can
    upload them as artifacts."""
    if report.ok:
        return
    artifact_dir = os.environ.get("DIFFERENTIAL_ARTIFACT_DIR")
    if artifact_dir:
        directory = Path(artifact_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for index, mismatch in enumerate(report.mismatches):
            path = directory / (
                f"counterexample-{mismatch.stream_name}-{index:03d}.txt"
            )
            path.write_text(mismatch.describe() + "\n")
    raise AssertionError(
        "\n".join(m.describe() for m in report.mismatches)
    )


def make_streams(n_fuzz, adversarial_seeds):
    streams = [fuzz_stream(seed) for seed in range(n_fuzz)]
    for name in sorted(ADVERSARIAL_GENERATORS):
        streams.extend(
            ADVERSARIAL_GENERATORS[name](seed)
            for seed in range(adversarial_seeds)
        )
    return streams


class TestRealTiersAgree:
    def test_quick_campaign(self):
        # The always-on smoke slice of the fuzz lane.
        report = run_differential(make_streams(40, 5))
        assert_ok(report)
        assert report.streams == 60
        assert report.records > 4000

    @pytest.mark.fuzz
    def test_thousand_stream_campaign(self):
        # The acceptance bar: >= 1000 seeded streams, adversarial
        # generators included, every batching bit-identical to the
        # oracle.
        report = run_differential(make_streams(840, 40), shrink=False)
        assert report.streams == 1000
        assert_ok(report)

    def test_state_digests_agree_across_tiers(self):
        """The carried state does not depend on where the stream was
        cut — whole, at its own boundaries, or record by record."""
        stream = fuzz_stream(123)
        _, whole_state = columnar_labels(stream.records)
        for cuts in (stream.boundaries, range(1, len(stream.records))):
            _, cut_state = columnar_labels(stream.records, cuts)
            assert cut_state == whole_state

    def test_digest_matches_reference(self):
        stream = fuzz_stream(7)
        labels, _ = columnar_labels(stream.records, stream.boundaries)
        expected = reference_classify(stream.records)
        assert labels == expected
        assert stream_digest(stream.records, labels) == stream_digest(
            stream.records, expected
        )


def broken_forwarding_tier(records, boundaries=()):
    """A tier with a deliberate off-by-one: the forwarding comparison
    slices one element instead of two, so it compares next hops only
    and ignores ASPATH changes (at any batching)."""
    reachable, ever, last = {}, {}, {}
    labels = []
    for r in records:
        key = (r.peer_id, r.prefix.network, r.prefix.length)
        if r.is_announce:
            a = r.attributes
            current = (a.next_hop, tuple(a.as_path), a.med, a.local_pref,
                       tuple(sorted(a.communities)))
            if not ever.get(key):
                labels.append(("NEW_ANNOUNCE", False))
            else:
                previous = last[key]
                same_fwd = current[0:1] == previous[0:1]  # the bug
                if reachable.get(key):
                    if same_fwd:
                        labels.append(("AADUP", current != previous))
                    else:
                        labels.append(("AADIFF", False))
                else:
                    labels.append(
                        ("WADUP" if same_fwd else "WADIFF", False)
                    )
            reachable[key] = True
            ever[key] = True
            last[key] = current
        else:
            labels.append(
                ("PLAIN_WITHDRAW", False)
                if reachable.get(key)
                else ("WWDUP", False)
            )
            reachable[key] = False
    return labels, None


def broken_carry_tier(records, boundaries=()):
    """A columnar tier that forgets cross-batch state: every batch is
    classified by a fresh classifier."""
    cuts = sorted({b for b in boundaries if 0 < b < len(records)})
    edges = [0, *cuts, len(records)]
    table = AttributeTable()
    labels = []
    classifier = None
    for lo, hi in zip(edges, edges[1:]):
        classifier = ColumnClassifier()  # the bug: state reset per batch
        batch = RecordColumns.from_records(records[lo:hi], attrs=table)
        codes, policy = classifier.classify(batch)
        labels.extend(
            (CATEGORY_OF_CODE[int(code)].name, bool(flag))
            for code, flag in zip(codes, policy)
        )
    return labels, classifier.state_digest() if classifier else None


class TestBrokenTiersAreCaught:
    def test_off_by_one_caught_with_tiny_counterexample(self):
        report = run_differential(
            make_streams(20, 3), column_tier=broken_forwarding_tier
        )
        assert not report.ok
        found = report.mismatches[0]
        assert found.shrunk is not None
        assert len(found.shrunk) <= 10  # acceptance bar
        # The shrunk stream still distinguishes the bug on its own.
        broken, _ = broken_forwarding_tier(found.shrunk)
        assert broken != reference_classify(found.shrunk)
        assert "shrunk counterexample" in found.describe()

    def test_missing_carry_caught_with_tiny_counterexample(self):
        streams = [
            ADVERSARIAL_GENERATORS["cross_batch_carry"](seed)
            for seed in range(3)
        ]
        report = run_differential(streams, column_tier=broken_carry_tier)
        assert not report.ok
        found = report.mismatches[0]
        assert found.tier.startswith("columnar")
        assert found.shrunk is not None
        assert len(found.shrunk) <= 10

    def test_clean_tiers_produce_no_mismatch_on_same_streams(self):
        # The same streams that catch the bugs pass with the real tiers
        # (the harness is sensitive, not trigger-happy).
        report = run_differential(make_streams(20, 3))
        assert report.ok


class TestShrink:
    def test_shrink_is_deterministic_and_minimal(self):
        stream = fuzz_stream(5)

        def failing(subset):
            # Fails iff the subset announces prefix 10.0.0.0/24 at
            # least twice from peer 0 (a stand-in property with a known
            # 2-record minimum).
            hits = [
                r for r in subset
                if r.is_announce and r.prefix.network == (10 << 24)
            ]
            return len(hits) >= 2

        assert failing(stream.records)
        first = shrink_stream(stream.records, failing)
        second = shrink_stream(stream.records, failing)
        assert first == second
        assert len(first) == 2
        assert failing(first)

    def test_shrink_keeps_failure_failing(self):
        stream = fuzz_stream(11)

        def failing(subset):
            return sum(1 for r in subset if r.is_withdraw) >= 3

        shrunk = shrink_stream(stream.records, failing)
        assert failing(shrunk)
        assert len(shrunk) == 3


def test_report_summary_counts():
    report = run_differential([fuzz_stream(1), fuzz_stream(2)])
    assert report.streams == 2
    assert "2 streams" in report.summary()
    assert report.summary().endswith("OK")


# -- the detection differential ---------------------------------------------


def make_detection_streams(n_fuzz, adversarial_seeds):
    """Fuzz + adversarial + detection-tier generators: every stream the
    detection differential is held to."""
    from repro.verify.streams import DETECTION_GENERATORS

    streams = make_streams(n_fuzz, adversarial_seeds)
    for name in sorted(DETECTION_GENERATORS):
        streams.extend(
            DETECTION_GENERATORS[name](seed)
            for seed in range(adversarial_seeds)
        )
    return streams


class TestDetectionTiersAgree:
    def test_quick_campaign(self):
        from repro.verify.differential import run_detection_differential
        from repro.verify.streams import detection_topology

        report = run_detection_differential(
            make_detection_streams(20, 3), detection_topology()
        )
        assert_ok(report)
        assert report.streams == 44
        assert report.records > 2000

    @pytest.mark.fuzz
    def test_large_campaign(self):
        from repro.verify.differential import run_detection_differential
        from repro.verify.streams import detection_topology

        report = run_detection_differential(
            make_detection_streams(200, 25),
            detection_topology(),
            shrink=False,
        )
        assert report.streams == 400
        assert_ok(report)

    def test_topology_free_detection_also_agrees(self):
        from repro.verify.differential import run_detection_differential

        # With no declared topology the path flags are all zero but the
        # MOAS / origin / sub-prefix machinery still must agree.
        report = run_detection_differential(
            make_detection_streams(10, 2), topology=None
        )
        assert_ok(report)

    def test_detection_generators_exercise_every_flag(self):
        from repro.verify.reference import (
            DETECTION_FLAGS,
            reference_detection_counts,
        )
        from repro.verify.streams import detection_topology

        edges = detection_topology().edges()
        totals = {name: 0 for _, name in DETECTION_FLAGS}
        for stream in make_detection_streams(5, 2):
            for name, count in reference_detection_counts(
                stream.records, edges
            ).items():
                totals[name] += count
        assert all(count > 0 for count in totals.values()), totals


def broken_moas_tier(records, boundaries=(), topology=None):
    """A detection tier that forgets to retire a peer's old origin on
    re-announcement — origins accumulate and MOAS over-fires."""
    from repro.analysis.detection import ColumnDetector

    detector = ColumnDetector(topology)
    classifier = ColumnClassifier()
    table = AttributeTable()
    flags = []
    for record in records:
        batch = RecordColumns.from_records([record], table)
        codes, _ = classifier.classify(batch)
        if record.is_announce:
            key = (record.peer_id, record.prefix.network,
                   record.prefix.length)
            detector._route_origin.pop(key, None)  # the bug
        flags.extend(detector.detect(batch, codes).tolist())
    return flags, None


class TestBrokenDetectionTiersAreCaught:
    def test_leaky_multiset_caught_and_shrunk(self):
        from repro.verify.differential import run_detection_differential
        from repro.verify.streams import detection_topology

        report = run_detection_differential(
            make_detection_streams(10, 2),
            detection_topology(),
            column_tier=broken_moas_tier,
        )
        assert not report.ok
        found = report.mismatches[0]
        assert found.tier.startswith("det-columnar")
        assert found.shrunk is not None
        assert len(found.shrunk) <= 10  # same acceptance bar

    def test_clean_tiers_pass_the_same_streams(self):
        from repro.verify.differential import run_detection_differential
        from repro.verify.streams import detection_topology

        report = run_detection_differential(
            make_detection_streams(10, 2), detection_topology()
        )
        assert report.ok
