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
- :mod:`repro.verify.refgen` — the scalar trace-generation tier (the
  per-pair loop, one record at a time, linear-scan bin sampler), the
  only second implementation of the array-built
  :meth:`~repro.workloads.generator.TraceGenerator.day_columns`.
- :mod:`repro.verify.chaos` — seeded fault injection around
  :func:`~repro.campaign.runner.run_campaign`: kill runs mid-shard,
  corrupt archives/results/manifests, reorder completion, and assert
  the resumed merged digest equals the unfaulted run.

The last three are imported from their own modules, never from this
package: ``python -m repro.verify.golden`` must find ``golden.py``
unloaded, or it runs it twice; and the chaos campaign and the scalar
generator pull in whole tiers a differential check does not need.
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
]
