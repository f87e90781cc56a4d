"""The sharded, resumable, out-of-core campaign runner.

:func:`run_campaign` expands a
:class:`~repro.campaign.config.CampaignConfig` into its shard plan,
runs ``generate → spill → classify → fold`` for every shard not
already completed on disk, and folds the partial results into one
:class:`~repro.campaign.results.CampaignResult`.

The pipeline is streaming end to end, which is what makes
``--days 270`` a flat-memory workload:

- each shard generates one day at a time, spills it as a columnar
  chunk (:mod:`repro.core.spill`) when a layout is given, and folds
  it through a :class:`~repro.campaign.fold.ShardAccumulator` — at
  most one day of records lives in a worker at once;
- pool workers hand back lightweight :class:`ShardHandoff`
  descriptors (:mod:`repro.campaign.handoff`) instead of pickled
  aggregates, with the payload crossing via the result file or,
  without an output directory, inside the descriptor;
- the parent folds partials incrementally as shards complete (the
  merge is commutative, so completion order cannot matter), never
  holding more than the running total;
- resume loads manifested shards one at a time, and a restarted
  shard reuses every day chunk whose digest verifies — generation
  restarts at the first unfinished day, with the generator's
  cross-day state restored from the last good chunk's checkpoint.

``workers <= 1`` runs fully in-process — no Pool is ever spawned, no
payload round-trips through serialization — and remains the reference
execution every pool size must reproduce bit-for-bit (proven in
``tests/test_campaign.py``).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.columns import AttributeTable, RecordColumns
from ..core.spill import (
    ChunkCorrupt,
    ChunkInfo,
    SpillChunk,
    read_chunk,
    write_chunk,
)
from ..workloads.generator import TraceGenerator, campaign_generator
from .config import CampaignConfig, ShardSpec
from .fold import ShardAccumulator
from .handoff import ShardHandoff, collect_partial, publish_partial
from .manifest import CampaignLayout
from .results import CampaignResult, PartialResult

__all__ = [
    "run_campaign",
    "run_shard",
    "CampaignHooks",
    "KillRun",
    "TRANSFERABLE_TYPES",
]

#: Process-boundary contract (CON001): the only project type this
#: module's pool ships across the worker seam — workers return
#: :class:`ShardHandoff` descriptors, never aggregates.
TRANSFERABLE_TYPES = (ShardHandoff,)

#: Progress callback signature: (spec, "run" | "loaded", records).
ProgressFn = Callable[[ShardSpec, str, int], None]

#: Chunk observer signature: (spec, day, "generated" | "loaded").
ChunkFn = Callable[[ShardSpec, int, str], None]


class KillRun(RuntimeError):
    """Raised by a fault hook to abort a campaign mid-run.

    It propagates out of :func:`run_campaign`, leaving whatever the run
    had written on disk — exactly the state a SIGKILLed process leaves
    behind — so the chaos layer can simulate kills at precise points
    (including between a shard's result write and its manifest write,
    or between two day chunks) and then exercise ``resume``.
    """


@dataclass
class CampaignHooks:
    """Injectable observation/fault points for :func:`run_campaign`.

    Every hook is optional and is invoked in the parent process (the
    pool path runs shards in workers but collects results and writes
    manifests in the parent, so those hooks fire there too):

    - ``order_pending(specs)`` → reordered specs: permutes the
      still-to-run shard list (chaos uses it to prove completion
      order cannot affect the merged result);
    - ``on_shard_start(spec)``: before a shard is (re)computed —
      honored exactly only on the inline (``workers <= 1``) path;
    - ``on_chunk(spec, day, how)``: after each day chunk is generated
      or loaded — honored only on the inline path (it fires inside
      :func:`run_shard`), giving chaos a mid-shard kill seam;
    - ``before_manifest(spec, layout)``: between the shard's result
      write and its manifest write — the crash window the
      manifest-last protocol exists for;
    - ``on_shard_written(spec, layout)``: after the shard is durably
      complete (result + manifest on disk).

    Hooks exist so the chaos layer injects faults through a supported
    seam instead of monkeypatching internals.
    """

    order_pending: Optional[
        Callable[[List[ShardSpec]], Sequence[ShardSpec]]
    ] = None
    on_shard_start: Optional[Callable[[ShardSpec], None]] = None
    on_chunk: Optional[ChunkFn] = None
    before_manifest: Optional[
        Callable[[ShardSpec, CampaignLayout], None]
    ] = None
    on_shard_written: Optional[
        Callable[[ShardSpec, CampaignLayout], None]
    ] = None


def run_shard(
    config: CampaignConfig,
    spec: ShardSpec,
    layout: Optional[CampaignLayout] = None,
    on_chunk: Optional[ChunkFn] = None,
) -> Tuple[PartialResult, int, List[dict]]:
    """Run one shard's streaming pipeline; pure function of its
    arguments plus whatever verifiable chunks already sit on disk.

    Day by day: reuse the day's spill chunk when a layout is given and
    the chunk verifies (restoring the generator's cross-day state from
    its checkpoint), otherwise generate the day and spill it; either
    way the day folds through the accumulator and is dropped.  Peak
    memory is one day of records — on the reuse path a read-only memmap
    of the chunk.  Returns ``(partial, record count, chunk
    descriptors)``; the descriptor list is empty without a layout.

    A fresh attribute table per day keeps each chunk's bytes a pure
    function of ``(config, spec, day)`` — classification and every
    aggregate are invariant to attribute-id numbering, so per-day
    tables change no result while making chunk digests reproducible.
    The generator is built for the first day that must be generated,
    from the last loaded chunk's checkpoint; a shard whose days all
    load never synthesizes a population.
    """
    generator: Optional[TraceGenerator] = None
    # The last loaded day's end state, until a generated day takes it.
    checkpoint: Optional[dict] = None
    categories = config.category_set()
    fingerprint = config.fingerprint()
    accumulator = ShardAccumulator(config, spec)
    chunks: List[dict] = []
    for day in spec.days:
        columns: Optional[RecordColumns] = None
        info: Optional[ChunkInfo] = None
        how = "generated"
        if layout is not None:
            path = layout.chunk_path(spec, day)
            if path.exists():
                # Drop yesterday's chunk before today's is read.
                chunk: Optional[SpillChunk] = None
                try:
                    chunk = read_chunk(path)
                except ChunkCorrupt:
                    chunk = None
                if (
                    chunk is not None
                    and chunk.extra.get("campaign") == fingerprint
                    and chunk.extra.get("shard") == spec.index
                    and chunk.extra.get("day") == day
                    and TraceGenerator.can_restore(
                        chunk.extra.get("generator_state")
                    )
                ):
                    columns = chunk.columns
                    checkpoint = chunk.extra["generator_state"]
                    info = chunk.info
                    how = "loaded"
        if columns is None:
            if generator is None:
                generator = campaign_generator(
                    config.n_peers, config.total_prefixes,
                    spec.population_seed, spec.generator_seed,
                )
            if checkpoint is not None:
                generator.restore_state(checkpoint)
                checkpoint = None
            columns = generator.day_columns(
                day,
                pair_fraction=config.pair_fraction,
                categories=categories,
                attrs=AttributeTable(),
            )
            if layout is not None:
                info = write_chunk(
                    layout.chunk_path(spec, day),
                    columns,
                    extra={
                        "campaign": fingerprint,
                        "shard": spec.index,
                        "day": day,
                        "generator_state": generator.state_payload(),
                    },
                )
        if layout is not None:
            assert info is not None  # both branches above set it
            chunks.append(
                {
                    "day": day,
                    "file": layout.chunk_relpath(spec, day),
                    "rows": info.rows,
                    "sha256": info.sha256,
                }
            )
        accumulator.fold_day(day, columns)
        if on_chunk is not None:
            on_chunk(spec, day, how)
    return accumulator.result(), accumulator.records, chunks


def _shard_task(task: Tuple[dict, dict, Optional[str]]) -> ShardHandoff:
    """Pool entry point (top-level so it pickles under spawn)."""
    config_payload, spec_payload, out = task
    config = CampaignConfig.from_payload(config_payload, out=out)
    spec = ShardSpec.from_payload(spec_payload)
    layout = CampaignLayout(out) if out is not None else None
    if layout is not None:
        layout.chunk_dir(spec).mkdir(parents=True, exist_ok=True)
    partial, records, chunks = run_shard(config, spec, layout)
    return publish_partial(
        spec, partial.to_payload(), records, chunks, layout
    )


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_campaign(
    config: CampaignConfig,
    workers: int = 1,
    resume: bool = False,
    stop_after: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    hooks: Optional[CampaignHooks] = None,
) -> CampaignResult:
    """Run (or resume) a campaign; see module docstring.

    ``workers`` sets the process-pool size; ``<= 1`` runs fully
    in-process (no Pool is spawned) — the reference execution every
    pool size must reproduce.  ``resume`` loads verifiably completed
    shards from ``config.out`` instead of re-running them, and
    restarted shards reuse their verifiable day chunks.
    ``stop_after`` caps how many *new* shards run before returning a
    partial result — the programmatic stand-in for a killed run (the
    manifest tests and checkpoint demos use it); it is honored
    exactly only with ``workers <= 1``.  ``hooks`` injects
    observation/fault points (see :class:`CampaignHooks`); a hook
    raising :class:`KillRun` aborts the run with the on-disk state of
    a killed process.
    """
    plan = config.shard_plan()
    layout: Optional[CampaignLayout] = None
    if config.out is not None:
        layout = CampaignLayout(config.out)
        layout.check_campaign(config)
        layout.prepare()
        layout.write_campaign(config)

    # The running total: partials fold in as they arrive (completion
    # order — the merge is commutative, proven by the merge-order
    # property tests), so the parent never holds per-shard results.
    merged = PartialResult.empty()
    done = set()
    loaded = 0
    if resume and layout is not None:
        for spec, partial in layout.iter_completed(plan):
            merged = merged + partial
            done.add(spec.index)
            loaded += 1
            if progress is not None:
                progress(spec, "loaded", partial.records)

    pending = [spec for spec in plan if spec.index not in done]
    if hooks is not None and hooks.order_pending is not None:
        reordered = list(hooks.order_pending(list(pending)))
        assert {s.index for s in reordered} <= {s.index for s in pending}
        pending = reordered
    if stop_after is not None:
        pending = pending[:max(0, stop_after)]

    def before_manifest_hook(spec: ShardSpec) -> Optional[Callable[[], None]]:
        if hooks is None or hooks.before_manifest is None or layout is None:
            return None
        callback, sealed = hooks.before_manifest, layout
        return lambda: callback(spec, sealed)

    def shard_written(spec: ShardSpec) -> None:
        if hooks is None or hooks.on_shard_written is None or layout is None:
            return
        hooks.on_shard_written(spec, layout)

    ran = len(pending)
    if pending:
        if workers <= 1 or len(pending) == 1:
            # In-process fast path: no Pool, no serialization round
            # trip — the shard's PartialResult folds in directly.
            on_chunk = hooks.on_chunk if hooks is not None else None
            for spec in pending:
                if hooks is not None and hooks.on_shard_start is not None:
                    hooks.on_shard_start(spec)
                partial, records, chunks = run_shard(
                    config, spec, layout, on_chunk=on_chunk
                )
                if layout is not None:
                    layout.write_shard(
                        spec,
                        partial.to_payload(),
                        records,
                        chunks,
                        before_manifest=before_manifest_hook(spec),
                    )
                    shard_written(spec)
                merged = merged + partial
                if progress is not None:
                    progress(spec, "run", records)
        else:
            tasks = [
                (config.to_payload(), spec.to_payload(), config.out)
                for spec in pending
            ]
            by_index = {spec.index: spec for spec in pending}
            context = _pool_context()
            with context.Pool(min(workers, len(pending))) as pool:
                # Unordered: shards land as they finish and fold into
                # the running total immediately (commutative merge).
                for handoff in pool.imap_unordered(_shard_task, tasks):
                    spec = by_index[handoff.index]
                    payload = collect_partial(handoff, layout, spec)
                    if layout is not None:
                        # The worker already wrote the result file;
                        # the parent seals the shard manifest-last.
                        layout.write_manifest(
                            spec,
                            handoff.records,
                            handoff.chunks,
                            handoff.result_sha256,
                            before_manifest=before_manifest_hook(spec),
                        )
                        shard_written(spec)
                    merged = merged + PartialResult.from_payload(payload)
                    if progress is not None:
                        progress(spec, "run", handoff.records)

    # Deliberately clock-free: run_campaign sits on the golden
    # corpus's call graph (build_golden freezes a campaign digest), so
    # DET102 holds it to zero wall-clock reads — callers that want a
    # runtime line measure around the call (see cmd_campaign).
    return CampaignResult(
        config=config,
        partial=merged,
        shard_count=len(plan),
        shards_run=ran,
        shards_loaded=loaded,
    )
