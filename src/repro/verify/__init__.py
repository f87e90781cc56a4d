"""The conformance layer: oracles the fast paths are held to.

Every optimized tier in this repository — the columnar classifier, the
sharded campaign runner — claims bit-identical results to the simple
per-record semantics.  This package makes that claim checkable:

- :mod:`repro.verify.reference` — a deliberately naive, dependency-free
  re-implementation of the paper's taxonomy and aggregations, small
  enough to audit against PAPER.md by eye.  It is the semantic ground
  truth; it is never optimized.
- :mod:`repro.verify.streams` — seeded fuzz-stream generators: random
  update streams plus adversarial generators for the known hard cases
  (cross-batch carry, duplicate timestamps, re-announce-after-withdraw,
  attribute-interning collisions).
- :mod:`repro.verify.differential` — the differential runner: pipes a
  stream through ColumnClassifier (at several batchings) and the
  reference oracle, asserts identical labels/counts/digests, and
  minimizes any failing stream with delta-debugging shrink.
- :mod:`repro.verify.golden` — the golden corpus: committed traces
  under ``tests/golden/`` with frozen expected outputs, plus the
  regeneration script.
- :mod:`repro.verify.refgen` — the pre-vectorization trace-generation
  tier (scalar per-record emission, linear-scan bin sampler), kept
  verbatim as the differential and timing baseline for the vectorized
  :meth:`~repro.workloads.generator.TraceGenerator.day_columns` path.
- :mod:`repro.verify.chaos` — seeded fault injection around
  :func:`~repro.campaign.runner.run_campaign`: kill runs mid-shard,
  corrupt archives/results/manifests, reorder completion, and assert
  the resumed merged digest equals the unfaulted run.
"""

from .differential import (
    DifferentialMismatch,
    DifferentialReport,
    columnar_detection,
    run_detection_differential,
    run_differential,
    shrink_stream,
    stream_digest,
)
from .reference import (
    DETECTION_FLAGS,
    reference_classify,
    reference_counts,
    reference_counts_by_peer,
    reference_counts_by_prefix,
    reference_bin_counts,
    reference_detect,
    reference_detection_counts,
    reference_detection_digest,
    reference_interarrival_histogram,
    reference_stability,
)
from .streams import (
    ADVERSARIAL_GENERATORS,
    DETECTION_GENERATORS,
    FuzzStream,
    detection_topology,
    fuzz_stream,
    adversarial_cross_batch_carry,
    adversarial_duplicate_timestamps,
    adversarial_interning_collisions,
    adversarial_reannounce_after_withdraw,
)
from .chaos import ChaosReport, run_chaos_campaign
from .golden import check_golden, write_golden
from .refgen import ReferenceTraceGenerator, reference_twin

__all__ = [
    "DifferentialMismatch",
    "DifferentialReport",
    "run_differential",
    "run_detection_differential",
    "columnar_detection",
    "shrink_stream",
    "stream_digest",
    "DETECTION_FLAGS",
    "reference_classify",
    "reference_counts",
    "reference_counts_by_peer",
    "reference_counts_by_prefix",
    "reference_bin_counts",
    "reference_detect",
    "reference_detection_counts",
    "reference_detection_digest",
    "reference_interarrival_histogram",
    "reference_stability",
    "ADVERSARIAL_GENERATORS",
    "DETECTION_GENERATORS",
    "FuzzStream",
    "detection_topology",
    "fuzz_stream",
    "adversarial_cross_batch_carry",
    "adversarial_duplicate_timestamps",
    "adversarial_interning_collisions",
    "adversarial_reannounce_after_withdraw",
    "ChaosReport",
    "run_chaos_campaign",
    "check_golden",
    "write_golden",
    "ReferenceTraceGenerator",
    "reference_twin",
]
