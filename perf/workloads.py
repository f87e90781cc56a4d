"""The six benchmark workloads: frozen sizes, the timed call of each,
its set-up, and the wrappers the traced run installs.

Everything that touches ``repro`` is imported inside a function: the
child process imports it between start and the first timed call, and
that import time is part of ``setup_s``.

Sizes are frozen.  They are the issue's sizes scaled down so one timed
call takes about half a second (the ``full`` scale): the shared host
slows processes in bursts, a short call has a fair chance of running
between two bursts, and a run fits 10–15 of them.  Never vary them
between commits; a number measured at another size is another metric.  ``smoke`` exists for
``perf/test_perf.py`` only and its numbers are never recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from tracing import Tracer, instrument, instrument_generator

#: How many times a workload's one-time set-up is repeated, so that
#: ``setup_s`` does not rest on a single reading.
PREPARES = 3

#: (call, finish): ``call()`` is the timed region and returns whatever
#: the program returned; ``finish(raw)`` turns that into the outcome
#: ``{units, ops, digests, ...}`` outside the timed region.
Built = Tuple[Callable[[], object], Callable[[object], dict]]


def sha256_json(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(
        (Path(base) / name).stat().st_size
        for base, _, names in os.walk(root)
        for name in names
    )


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Everything that imports ``repro`` runs in a child process, so the
    orchestrator stays small (a child's ``ru_maxrss`` starts at its
    parent's resident size).  ``build(params, tracer)`` does the
    imports and config construction and returns the timed call;
    ``prepare(params, work)`` is the one-time set-up, timed into
    ``setup_s``, and may add to ``params``; ``expected(params)``
    returns digests obtained independently of the timed path, and
    ``reference`` names a workload whose child must produce the same
    digests from the same sizes and seed.  ``before_repeat`` /
    ``after_repeat`` run in the orchestrator around each child and
    touch only files.
    """

    name: str
    why: str
    unit: str  # what `units` counts: "records" | "events"
    op: str  # what one op is
    sizes: Dict[str, dict]
    build: Callable[[dict, Tracer], Built]
    instrument: Callable[[Tracer], None]
    profile: bool = False
    #: Per-layer metrics that must read 0 in this workload's traced run
    #: (a layer it must never enter); anything else fails the trace.
    trace_zero: Tuple[str, ...] = ()
    prepare: Optional[Callable[[dict, Path], None]] = None
    before_repeat: Optional[Callable[[dict, Path], None]] = None
    after_repeat: Optional[Callable[[dict, dict], None]] = None
    expected: Optional[Callable[[dict], Dict[str, str]]] = None
    reference: Optional[str] = None


# -- statistical tier: campaign_mem / campaign_spill_w2 / campaign_refold ---

CAMPAIGN_SIZES = {
    "full": dict(days=4, shards=2, n_peers=30, total_prefixes=2000),
    "smoke": dict(days=2, shards=2, n_peers=12, total_prefixes=600),
}

#: A campaign's volume swings ±30 % with its seed (a storm day doubles,
#: an outage day empties), which would make every reading a function of
#: the seed first and of the code second.  ``--seed`` therefore picks
#: one of these campaign seeds, screened once over seeds 1–1199 at the
#: full size for four ordinary days: total within 2 % of 463 k records,
#: every day within 8 % of a quarter of it.
CAMPAIGN_SEEDS = (137, 257, 327, 428, 521, 828, 988, 1081, 1185)


def _campaign_config(params: dict):
    from repro.campaign import CampaignConfig

    return CampaignConfig(
        days=params["days"],
        shards=params["shards"],
        n_peers=params["n_peers"],
        total_prefixes=params["total_prefixes"],
        seed=CAMPAIGN_SEEDS[params["seed"] % len(CAMPAIGN_SEEDS)],
        out=params.get("out"),
    )


def build_campaign(params: dict, tracer: Tracer) -> Built:
    from repro.campaign import run_campaign

    config = _campaign_config(params)
    workers = params.get("workers", 1)
    resume = params.get("resume", False)

    def call():
        result = run_campaign(config, workers=workers, resume=resume)
        # The aggregates the paper's figures read; a user pays for
        # them after every campaign.
        with tracer.span("campaign.results.figures"):
            figures = {
                "daily_totals": result.daily_totals().tolist(),
                "affected": result.affected_fractions().tolist(),
                "timer_mass": result.timer_mass,
                "interarrival": result.partial.interarrival_proportions(),
            }
        return result, figures

    def finish(raw) -> dict:
        result, figures = raw
        return {
            "units": result.records,
            "ops": config.days,
            "digests": {
                "partial": result.partial.digest(),
                "figures": sha256_json(figures),
            },
            "shards_run": result.shards_run,
            "shards_loaded": result.shards_loaded,
        }

    return call, finish


def instrument_campaign(tracer: Tracer) -> None:
    import multiprocessing.pool

    from repro.campaign import config, fold, manifest, results, runner
    from repro.core.columns import ColumnClassifier
    from repro.workloads.generator import TraceGenerator

    def file_bytes(args, _result):
        return {"bytes": os.path.getsize(args[0])}

    instrument(tracer, config.CampaignConfig, "shard_plan",
               "campaign.config.plan")
    instrument(tracer, runner, "campaign_generator", "campaign.config.plan")
    instrument(tracer, TraceGenerator, "day_columns",
               "workloads.generator.busy",
               lambda args, columns: {"rows": len(columns)})
    instrument(tracer, runner, "write_chunk", "core.spill.write", file_bytes)
    # read_chunk verifies the digest (reads every byte) and memory-maps
    # the data; the mapped pages are then touched inside classify/fold.
    instrument(tracer, runner, "read_chunk", "core.spill.read", file_bytes)
    instrument(tracer, fold.ShardAccumulator, "fold_day",
               "campaign.fold.busy")
    instrument(tracer, fold.ShardAccumulator, "result", "campaign.fold.busy")
    instrument(tracer, ColumnClassifier, "classify", "core.columns.classify",
               lambda args, _: {"rows": len(args[1]),
                                "attrs": len(args[1].attrs)})
    for name in ("__add__", "to_payload", "from_payload"):
        instrument(tracer, results.PartialResult, name,
                   "campaign.results.merge")
    layout = manifest.CampaignLayout
    for name in ("prepare", "check_campaign", "write_campaign",
                 "load_shard", "write_shard", "write_manifest"):
        instrument(tracer, layout, name, "campaign.manifest.write")
    instrument(tracer, layout, "write_result", "campaign.manifest.write",
               lambda args, _: {"payload_bytes": len(args[2])})
    instrument(tracer, runner, "publish_partial", "campaign.handoff.publish",
               lambda _, handoff: {"bytes": handoff.nbytes},
               after=tracer.flush_worker)
    instrument(tracer, runner, "collect_partial", "campaign.handoff.collect")
    # Pool start-up and teardown, as run_campaign's parent pays them.
    for name in ("__init__", "__exit__"):
        instrument(tracer, multiprocessing.pool.Pool, name,
                   "campaign.runner.pool")


def _spill_fresh_dir(params: dict, work: Path) -> None:
    out = work / "spill"
    shutil.rmtree(out, ignore_errors=True)
    params["out"] = str(out)


def _spill_measure(params: dict, sample: dict) -> None:
    out = Path(params["out"])
    sample["spill_bytes"] = tree_bytes(out) if out.is_dir() else 0
    shutil.rmtree(out, ignore_errors=True)


def _refold_prepare(params: dict, work: Path) -> None:
    from repro.campaign import run_campaign

    out = work / "refold"
    shutil.rmtree(out, ignore_errors=True)
    params["out"] = str(out)
    result = run_campaign(_campaign_config(params), workers=1)
    params["spilled_digest"] = result.partial.digest()


def _refold_kill_state(params: dict, work: Path) -> None:
    """The state a kill leaves: day chunks on disk, nothing sealed."""
    for name in ("manifest", "results"):
        shutil.rmtree(Path(params["out"]) / name, ignore_errors=True)


# -- archive_ingest ---------------------------------------------------------

#: The archive holds exactly ``records`` records whatever the seed —
#: the first that many of the generated stream — so a run's volume is
#: a property of the benchmark, not of the seed's storm and outage days.
ARCHIVE_SIZES = {
    "full": dict(records=75_000, days=4, n_peers=15, total_prefixes=2000,
                 pair_fraction=1.0, batch_size=8192, oracle_rows=50_000),
    "smoke": dict(records=8_000, days=4, n_peers=8, total_prefixes=240,
                  pair_fraction=1.0, batch_size=4096, oracle_rows=5_000),
}

BIN_WIDTH = 600.0


def _archive_columns(params: dict):
    """The first ``records`` generated records (at most ``days`` days
    are generated to find them)."""
    from repro.core.columns import AttributeTable, RecordColumns
    from repro.workloads.generator import campaign_generator

    generator = campaign_generator(
        n_peers=params["n_peers"],
        total_prefixes=params["total_prefixes"],
        population_seed=params["seed"],
    )
    table = AttributeTable()
    days, rows = [], 0
    for day in range(params["days"]):
        days.append(generator.day_columns(
            day, pair_fraction=params["pair_fraction"], attrs=table
        ))
        rows += len(days[-1])
        if rows >= params["records"]:
            break
    else:
        raise RuntimeError(
            f"seed {params['seed']} yields only {rows} records in "
            f"{params['days']} days; the archive needs {params['records']}"
        )
    columns = RecordColumns.concat(days)
    return RecordColumns(columns.data[: params["records"]], columns.attrs)


def _archive_prepare(params: dict, work: Path) -> None:
    from repro.collector.log import FileLog

    path = work / "archive.rril"
    with FileLog(path).writer() as log:
        log.extend_columns(_archive_columns(params))
    params["archive"] = str(path)


def _label_digest(names, policy) -> str:
    hasher = hashlib.sha256()
    for name, flag in zip(names, policy):
        hasher.update(f"{name},{int(flag)}\n".encode())
    return hasher.hexdigest()


def _counts_digest(counts, rows: int) -> str:
    return sha256_json(
        [counts.nonzero_dict(), counts.policy_changes, rows]
    )


def build_archive(params: dict, tracer: Tracer) -> Built:
    import numpy as np

    from repro.analysis.timeseries import bin_records
    from repro.collector.log import FileLog
    from repro.collector.store import SECONDS_PER_DAY
    from repro.core.columns import (
        CATEGORY_OF_CODE,
        AttributeTable,
        ColumnClassifier,
    )
    from repro.core.instability import CategoryCounts

    log = FileLog(params["archive"])
    end = float(params["days"] * SECONDS_PER_DAY)
    head = params["oracle_rows"]

    def call():
        classifier = ColumnClassifier()
        counts = CategoryCounts()
        bins = np.zeros(int(end // BIN_WIDTH), dtype=np.int64)
        rows = batches = 0
        head_codes, head_policy = [], []
        for batch in log.iter_column_batches(
            params["batch_size"], AttributeTable()
        ):
            codes, policy = classifier.classify(batch)
            counts = counts + CategoryCounts.from_codes(codes, policy)
            bins += bin_records(batch, BIN_WIDTH, end=end)
            if rows < head:
                head_codes.append(codes[: head - rows])
                head_policy.append(policy[: head - rows])
            rows += len(batch)
            batches += 1
        return counts, bins, rows, batches, head_codes, head_policy

    def finish(raw) -> dict:
        counts, bins, rows, batches, head_codes, head_policy = raw
        names = [
            CATEGORY_OF_CODE[code].name
            for code in np.concatenate(head_codes).tolist()
        ]
        return {
            "units": rows,
            "ops": batches,
            "archive_bytes": os.path.getsize(params["archive"]),
            "digests": {
                "counts": _counts_digest(counts, rows),
                "bins": sha256_json(bins.tolist()),
                "head": _label_digest(
                    names, np.concatenate(head_policy).tolist()
                ),
            },
        }

    return call, finish


def _archive_expected(params: dict) -> Dict[str, str]:
    """Counts and bins from classifying the generated columns directly
    (never through the codec); the head labels from the dependency-free
    oracle."""
    import numpy as np

    from repro.analysis.timeseries import bin_records
    from repro.collector.store import SECONDS_PER_DAY
    from repro.core.columns import ColumnClassifier, RecordColumns
    from repro.core.instability import CategoryCounts
    from repro.verify.reference import reference_classify

    columns = _archive_columns(params)
    codes, policy = ColumnClassifier().classify(columns)
    # The archive stores whole microseconds; bin what it stores.
    stored = np.round(columns.time * 1e6) / 1e6
    end = float(params["days"] * SECONDS_PER_DAY)
    head = RecordColumns(
        columns.data[: params["oracle_rows"]], columns.attrs
    )
    labels = reference_classify(head.to_records())
    return {
        "counts": _counts_digest(
            CategoryCounts.from_codes(codes, policy), len(columns)
        ),
        "bins": sha256_json(bin_records(stored, BIN_WIDTH, end=end).tolist()),
        "head": _label_digest(*zip(*labels)),
    }


def instrument_archive(tracer: Tracer) -> None:
    from repro.collector.log import FileLog
    from repro.core.columns import ColumnClassifier

    instrument_generator(
        tracer, FileLog, "iter_column_batches", "collector.mrt.decode",
        lambda batch: {"rows": len(batch)},
    )
    instrument(tracer, ColumnClassifier, "classify", "core.columns.classify",
               lambda args, _: {"rows": len(args[1]),
                                "attrs": len(args[1].attrs)})


# -- simulator tier: sim_timers / sim_exchange_day --------------------------

#: ``simulate`` offers the timer population at two sizes only: 2.4 k
#: events or 557 k events in one 1.05 s call — and a call that long
#: rarely runs between two of the host's slow bursts (its best-of-n
#: reading moved by 26 % between runs when every other workload held
#: 7 %).  So this workload runs the small population back to back on
#: consecutive seeds; what the calendar queue does at 14 k live timers
#: is not measured here.
SIM_TIMERS_SIZES = {
    "full": dict(runs=100),
    "smoke": dict(runs=3),
}

SIM_DAY_SIZES = {
    "full": dict(smoke=False, duration=1800.0),
    "smoke": dict(smoke=True, duration=900.0),
}


def build_sim_timers(params: dict, tracer: Tracer) -> Built:
    from repro.sim import simulate

    seeds = [params["seed"] + i for i in range(params["runs"])]

    def call():
        return [
            simulate(
                "sync_population", engine="calendar", smoke=True, seed=seed
            )
            for seed in seeds
        ]

    def finish(results) -> dict:
        return {
            "units": sum(r.events for r in results),
            "ops": len(results),
            "digests": {"sim": sha256_json([r.digest for r in results])},
        }

    return call, finish


def build_sim_day(params: dict, tracer: Tracer) -> Built:
    from dataclasses import replace

    from repro.analysis.detection import detect_records_columnar
    from repro.sim import (
        Engine,
        day_config,
        run_exchange_day_records,
        scenario_relationships,
    )

    config = replace(
        day_config(smoke=params["smoke"], seed=params["seed"]),
        duration=params["duration"],
    )

    def call():
        events, digest, records = run_exchange_day_records(Engine, config)
        detection = detect_records_columnar(
            records, scenario_relationships(config)
        )
        return events, digest, records, detection

    def finish(raw) -> dict:
        events, digest, records, detection = raw
        return {
            "units": events,
            "ops": 1,
            "digests": {
                "sim": digest,
                "detection": detection.digest(records),
            },
            "records": len(records),
        }

    return call, finish


def instrument_sim(tracer: Tracer) -> None:
    """Both simulator workloads.  ``sim.scenarios.build`` wraps the
    scenario entry points, so its *self* time is what they do besides
    running the engine: timer-population / partition construction and
    collecting the outcome."""
    import repro.sim as sim
    from repro.analysis import detection
    from repro.sim import scenarios
    from repro.sim.partition import ExchangePartition

    # perf calls the entry points through the package façade, so that
    # is where the wrappers go; their internals resolve the digest
    # helpers in ``scenarios`` at call time.
    instrument(tracer, sim, "simulate", "sim.scenarios.build")
    instrument(tracer, sim, "run_exchange_day_records", "sim.scenarios.build")
    instrument(tracer, ExchangePartition, "build", "sim.scenarios.build")
    instrument(tracer, sim.Engine, "run_until", "sim.engine.run",
               lambda _, processed: {"events": processed})
    for name in ("partition_digest", "combined_digest"):
        instrument(tracer, scenarios, name, "sim.partition.digest")
    instrument(tracer, detection, "detect_records_columnar",
               "analysis.detection.busy",
               lambda args, _: {"rows": len(args[0])})


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="campaign_mem",
            why="in-memory single-process campaign: generation does most "
            "of the work, spill and handoff none",
            unit="records",
            op="day-folds",
            sizes=CAMPAIGN_SIZES,
            build=build_campaign,
            instrument=instrument_campaign,
            trace_zero=("core.spill.write_bytes", "core.spill.read_bytes"),
        ),
        Workload(
            name="campaign_spill_w2",
            why="same campaign spilled to a cold directory by 2 workers: "
            "adds chunk writes, pool start-up, handoff and manifest sealing",
            unit="records",
            op="day-folds",
            sizes={
                scale: dict(size, workers=2)
                for scale, size in CAMPAIGN_SIZES.items()
            },
            build=build_campaign,
            instrument=instrument_campaign,
            before_repeat=_spill_fresh_dir,
            after_repeat=_spill_measure,
            reference="campaign_mem",
        ),
        Workload(
            name="campaign_refold",
            why="resume over verified day chunks: zero generator rows, so "
            "spill reads, classify and fold do all the work",
            unit="records",
            op="day-folds",
            sizes={
                scale: dict(size, resume=True)
                for scale, size in CAMPAIGN_SIZES.items()
            },
            build=build_campaign,
            instrument=instrument_campaign,
            trace_zero=(
                "workloads.generator.rows",
                "core.spill.chunks_rejected",
            ),
            prepare=_refold_prepare,
            before_repeat=_refold_kill_state,
            expected=lambda params: {"partial": params["spilled_digest"]},
            reference="campaign_mem",
        ),
        Workload(
            name="archive_ingest",
            why="decode an update archive, then classify: wire and MRT "
            "decoding dominate, classify is negligible",
            unit="records",
            op="decoded batches",
            sizes=ARCHIVE_SIZES,
            build=build_archive,
            instrument=instrument_archive,
            profile=True,
            prepare=_archive_prepare,
            expected=_archive_expected,
        ),
        Workload(
            name="sim_timers",
            why="timer populations back to back on the calendar engine: "
            "scheduler-bound, routers, RIB and links idle",
            unit="events",
            op="scenario runs",
            sizes=SIM_TIMERS_SIZES,
            build=build_sim_timers,
            instrument=instrument_sim,
            profile=True,
        ),
        Workload(
            name="sim_exchange_day",
            why="multi-exchange day on one engine plus detection: "
            "router-bound, the single-engine baseline",
            unit="events",
            op="scenario runs",
            sizes=SIM_DAY_SIZES,
            build=build_sim_day,
            instrument=instrument_sim,
            profile=True,
        ),
    )
}


def prepare_best(workload: Workload, params: dict, work: Path) -> float:
    """Run the one-time set-up :data:`PREPARES` times (each from
    scratch; the last one's output stays) and return the fastest, in
    seconds.  Zero for a workload that needs none."""
    if workload.prepare is None:
        return 0.0
    seconds = []
    for _ in range(PREPARES):
        started = time.perf_counter()
        workload.prepare(params, work)
        seconds.append(time.perf_counter() - started)
    return min(seconds)
