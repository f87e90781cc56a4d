#!/usr/bin/env python3
"""Acceptance benchmarks for the campaign runner and the simulator.

(Absolute classify throughput is the repo benchmark's
``core.columns.classify_rows_per_s``, see ``perf/``.)

``--campaign`` mode first times day synthesis itself — the vectorized
generator against the pre-vectorization reference tier
(``repro.verify.refgen``), digest-compared day chunk by day chunk,
with a >=5x single-process bar — then runs the same sharded campaign
at 1, 2, and 4 workers, asserts the merged results are bit-identical,
and writes per-worker wall-clock + speedups and the machine's CPU
count to ``BENCH_campaign.json`` (the per-layer generate / classify /
fold split is the repo benchmark's ``workloads.generator.busy_s`` /
``core.columns.classify_s`` / ``campaign.fold.busy_s``, see
``perf/``).  The >=1.7x
speedup-at-4-workers bar is enforced whenever the machine has >= 4
CPUs — on fewer cores the pool cannot physically beat the inline run,
so the file records the honest numbers and ``bar_skipped_reason`` says
exactly why the bar did not apply.  On a >= 4-CPU machine, skipping
the bar (``--no-bar``) is a *hard failure* unless explicitly waived
with ``REPRO_ALLOW_BAR_SKIP=1`` (see ``benchmarks/bar_policy.py``) —
a CI lane cannot silently stop enforcing it.  The generation bar is
single-process, so its skip needs the waiver on *any* machine.
``--campaign --smoke`` is the CI parity lane: old-vs-new generation
digest check plus one timed 1-worker run, no timing bars, no
RSS probe.

Campaign mode also probes the out-of-core tier: it runs a short and a
long spilling campaign (``python -m repro campaign --out ...``) in
subprocesses, measures each child's peak RSS via ``os.wait4``, and
requires the long horizon's peak to stay within 1.25x of the short
one — the flat-memory claim.  The long run's on-disk chunks are then
resume-loaded and digest-compared against a from-scratch in-memory
run; any mismatch fails the bench.  ``--rss-ceiling-mb`` adds an
absolute ceiling (CI smoke), enforced even under ``--no-bar``; all
failures are raised only after the JSON is written.

``--sim`` mode runs the discrete-event scheduler benchmark
(``benchmarks/bench_sim.py``): three simulator scenarios on the
calendar-queue engine vs the reference heap, digest-checked, written
to ``BENCH_sim.json``.  ``--smoke`` shrinks it to a seconds-long
digest-equivalence check with no timing bar (CI quick lane).

Run:  PYTHONPATH=src python benchmarks/run_bench.py --campaign [--days N]
      PYTHONPATH=src python benchmarks/run_bench.py --sim [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

try:
    from bar_policy import available_cpus, bar_skip_failure
except ImportError:  # invoked as a package module
    from benchmarks.bar_policy import available_cpus, bar_skip_failure


def _available_cpus() -> int:
    return available_cpus()


def _spawn_campaign_rss(cli_args) -> float:
    """Run ``python -m repro campaign`` in a child process and return
    its peak RSS in MiB, measured by the kernel via ``os.wait4`` (the
    max over the child and any pool workers it waited for)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", *cli_args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(
            f"RSS probe campaign exited with {child.returncode}: "
            f"repro campaign {' '.join(cli_args)}"
        )
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return usage.ru_maxrss * (scale / (1 << 20))


def probe_out_of_core(args):
    """Short vs long spilling campaign: peak-RSS ratio + digest parity
    against the in-memory path.  Returns (payload, failures)."""
    from repro.campaign import CampaignConfig, run_campaign

    failures = []
    shards = min(4, args.rss_base_days)
    common = [
        "--shards", str(shards),
        "--workers", str(args.rss_workers),
        "--seed", str(args.seed),
        "--peers", str(args.peers),
        "--prefixes", str(args.prefixes),
    ]
    with tempfile.TemporaryDirectory(prefix="bench-ooc-") as tmp:
        short_out = os.path.join(tmp, "short")
        long_out = os.path.join(tmp, "long")
        print(f"Out-of-core probe: {args.rss_base_days}-day vs "
              f"{args.rss_days}-day campaign, {args.rss_workers} "
              f"worker(s), day chunks spilled to disk")
        rss_short = _spawn_campaign_rss(
            ["--days", str(args.rss_base_days), "--out", short_out, *common]
        )
        print(f"  {args.rss_base_days:3d} days: peak RSS {rss_short:7.1f} MiB")
        rss_long = _spawn_campaign_rss(
            ["--days", str(args.rss_days), "--out", long_out, *common]
        )
        print(f"  {args.rss_days:3d} days: peak RSS {rss_long:7.1f} MiB")
        ratio = rss_long / rss_short
        print(f"  RSS ratio: {ratio:.2f}x (flat-memory bar: 1.25x)")

        # Digest parity: resume-load the long run's chunks (verifying
        # every digest on the way in) and compare against a
        # from-scratch in-memory run of the same config.
        config = CampaignConfig(
            days=args.rss_days,
            seed=args.seed,
            shards=shards,
            n_peers=args.peers,
            total_prefixes=args.prefixes,
            out=long_out,
        )
        loaded = run_campaign(config, resume=True)
        if loaded.shards_run:
            failures.append(
                f"resume-load of the out-of-core run recomputed "
                f"{loaded.shards_run} shard(s); expected all "
                f"{loaded.shards_loaded + loaded.shards_run} loaded"
            )
        in_memory = run_campaign(replace(config, out=None))
        disk_digest = loaded.partial.digest()
        memory_digest = in_memory.partial.digest()
        parity = disk_digest == memory_digest
        print(f"  digest parity vs in-memory: "
              f"{'OK' if parity else 'MISMATCH'} ({disk_digest[:12]})")
        if not parity:
            failures.append(
                f"out-of-core digest {disk_digest} != in-memory "
                f"digest {memory_digest}"
            )

    rss_bar_applies = not args.no_bar
    if rss_bar_applies and ratio > 1.25:
        failures.append(
            f"peak RSS grew {ratio:.2f}x from {args.rss_base_days} to "
            f"{args.rss_days} days (flat-memory bar: 1.25x)"
        )
    if args.rss_ceiling_mb is not None and rss_long > args.rss_ceiling_mb:
        failures.append(
            f"long-run peak RSS {rss_long:.1f} MiB above the "
            f"--rss-ceiling-mb {args.rss_ceiling_mb} MiB ceiling"
        )
    payload = {
        "days_short": args.rss_base_days,
        "days_long": args.rss_days,
        "shards": shards,
        "workers": args.rss_workers,
        "peak_rss_mib_short": round(rss_short, 1),
        "peak_rss_mib_long": round(rss_long, 1),
        "rss_ratio": round(ratio, 3),
        "rss_bar": "long-run peak RSS <= 1.25x the short run",
        "rss_bar_enforced": rss_bar_applies,
        "rss_ceiling_mb": args.rss_ceiling_mb,
        "digest": disk_digest,
        "digest_matches_in_memory": parity,
    }
    return payload, failures


def _columns_digest(columns) -> str:
    """Content digest of one generated day: record bytes + the interned
    attribute bundles in id order (ids are part of the layout)."""
    import hashlib

    digest = hashlib.sha256(columns.data.tobytes())
    names = [str(columns.attrs[i]) for i in range(len(columns.attrs))]
    digest.update(repr(names).encode())
    return digest.hexdigest()


def _generation_pass(config, make_generator):
    """One full generation sweep over the campaign's shard plan,
    exactly as ``run_shard`` drives it (per-shard generator, fresh
    attribute table per day).  Digesting happens off the clock so the
    timing is pure synthesis.  Returns (seconds, records, digests)."""
    from repro.core.columns import AttributeTable

    categories = config.category_set()
    elapsed = 0.0
    records = 0
    digests = []
    for spec in config.shard_plan():
        generator = make_generator(spec)
        for day in spec.days:
            start = time.perf_counter()
            columns = generator.day_columns(
                day,
                pair_fraction=config.pair_fraction,
                categories=categories,
                attrs=AttributeTable(),
            )
            elapsed += time.perf_counter() - start
            records += len(columns)
            digests.append(_columns_digest(columns))
    return elapsed, records, digests


def bench_generation(args, config, cpus):
    """The vectorized day synthesis vs the pre-vectorization tier
    (``repro.verify.refgen``), digest-checked day by day.

    The reference is the actual pre-optimization materialization loop
    — scalar per-record emission plus the O(bins) bin sampler — kept
    in-tree the way ``sim.refengine`` keeps the heap engine, so the
    recorded speedup measures this change honestly and reproducibly.
    Returns (payload, failures).
    """
    from repro.verify.refgen import reference_twin
    from repro.workloads.generator import campaign_generator

    def make_vectorized(spec):
        return campaign_generator(
            n_peers=config.n_peers,
            total_prefixes=config.total_prefixes,
            population_seed=spec.population_seed,
            generator_seed=spec.generator_seed,
        )

    def make_reference(spec):
        return reference_twin(make_vectorized(spec))

    print("Generation: vectorized day synthesis vs the "
          "pre-vectorization reference tier")
    t_ref, records, digests_ref = _generation_pass(config, make_reference)
    print(f"  reference:  {t_ref:7.2f} s ({records / t_ref:10,.0f} records/s)")
    t_vec = None
    for _ in range(args.repeats):
        elapsed, records_vec, digests_vec = _generation_pass(
            config, make_vectorized
        )
        t_vec = elapsed if t_vec is None else min(t_vec, elapsed)
    print(f"  vectorized: {t_vec:7.2f} s ({records / t_vec:10,.0f} records/s)")

    failures = []
    parity = records_vec == records and digests_vec == digests_ref
    print(f"  digest parity old-vs-new path: {'OK' if parity else 'MISMATCH'} "
          f"({len(digests_vec)} day chunk(s))")
    if not parity:
        failures.append(
            "vectorized generation output differs from the "
            "pre-vectorization reference tier"
        )

    speedup = t_ref / t_vec
    if args.no_bar:
        bar_skipped_reason = "--no-bar"
    elif args.smoke:
        bar_skipped_reason = "--smoke"
    else:
        bar_skipped_reason = None
    bar_applies = bar_skipped_reason is None
    print(f"  speedup: {speedup:.2f}x (bar: 5x, "
          f"{'enforced' if bar_applies else f'skipped: {bar_skipped_reason}'})")
    if bar_applies and speedup < 5.0:
        failures.append(
            f"generation speedup {speedup:.2f}x below the 5x bar"
        )
    # Generation is single-process: any box can run this bar, so a
    # skip needs the explicit waiver regardless of CPU count.
    skip_failure = bar_skip_failure(
        "generation 5x", bar_skipped_reason, cpus, min_cpus=1
    )
    if skip_failure:
        failures.append(skip_failure)

    payload = {
        "records": records,
        "reference_seconds": round(t_ref, 4),
        "vectorized_seconds": round(t_vec, 4),
        "reference_records_per_second": round(records / t_ref),
        "vectorized_records_per_second": round(records / t_vec),
        "speedup": round(speedup, 2),
        "reference": "pre-vectorization scalar tier "
                     "(repro.verify.refgen.ReferenceTraceGenerator)",
        "digests_identical": parity,
        "day_chunks_compared": len(digests_vec),
        "bar": "5x vectorized vs reference generation",
        "bar_enforced": bar_applies,
        "bar_skipped_reason": bar_skipped_reason,
    }
    return payload, failures


def run_campaign_bench(args) -> None:
    """Same campaign at 1/2/4 workers: identical digests, honest timings."""
    from repro.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(
        days=args.days,
        seed=args.seed,
        shards=min(4, args.days),
        n_peers=args.peers,
        total_prefixes=args.prefixes,
    )
    cpus = _available_cpus()
    print(f"Campaign: {config.days} days, {config.shards} shards, "
          f"{config.n_peers} peers x {config.total_prefixes} prefixes "
          f"({cpus} CPU(s) available)")

    generation, failures = bench_generation(args, config, cpus)

    timings = {}
    digests = {}
    records = 0
    worker_counts = (1,) if args.smoke else (1, 2, 4)
    for workers in worker_counts:
        best = None
        for _ in range(args.repeats):
            start = time.perf_counter()
            result = run_campaign(config, workers=workers)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        timings[workers] = best
        digests[workers] = result.partial.digest()
        records = result.records
        print(f"  {workers} worker(s): {best:.2f} s "
              f"(digest {digests[workers][:12]})")

    reference = digests[1]
    assert all(d == reference for d in digests.values()), (
        "sharded runs disagree across worker counts"
    )
    print(f"All {len(digests)} worker counts bit-identical "
          f"({records:,} records).")

    speedup_4 = None
    if not args.smoke:
        speedup_4 = timings[1] / timings[4]
    if args.smoke:
        bar_skipped_reason = "--smoke"
    elif args.no_bar:
        bar_skipped_reason = "--no-bar"
    elif cpus < 4:
        bar_skipped_reason = f"{cpus} CPU(s) < 4"
    else:
        bar_skipped_reason = None
    bar_applies = bar_skipped_reason is None
    if speedup_4 is not None:
        print(f"Speedup at 4 workers: {speedup_4:.2f}x "
              f"(bar: 1.7x, "
              f"{'enforced' if bar_applies else f'skipped: {bar_skipped_reason}'})")
        if bar_applies and speedup_4 < 1.7:
            failures.append(
                f"speedup {speedup_4:.2f}x below the 1.7x bar on {cpus} CPUs"
            )
    skip_failure = bar_skip_failure(
        "campaign 1.7x @ 4 workers", bar_skipped_reason, cpus
    )
    if skip_failure:
        failures.append(skip_failure)

    out_of_core = None
    if args.smoke:
        print("Out-of-core RSS probe skipped (--smoke).")
    elif args.skip_rss:
        print("Out-of-core RSS probe skipped (--skip-rss).")
    elif not hasattr(os, "wait4"):
        print("Out-of-core RSS probe skipped (no os.wait4 here).")
    else:
        out_of_core, rss_failures = probe_out_of_core(args)
        failures.extend(rss_failures)

    payload = {
        "days": config.days,
        "shards": config.shards,
        "n_peers": config.n_peers,
        "total_prefixes": config.total_prefixes,
        "seed": config.seed,
        "records": records,
        "cpus": cpus,
        "seconds_by_workers": {
            str(w): round(t, 4) for w, t in timings.items()
        },
        "speedup_2_workers": (
            round(timings[1] / timings[2], 3) if 2 in timings else None
        ),
        "speedup_4_workers": (
            round(speedup_4, 3) if speedup_4 is not None else None
        ),
        "digests_identical": True,
        "digest": reference,
        "generation": generation,
        "repeats": args.repeats,
        "timing": "best (minimum) of repeats per worker count",
        "bar": "1.7x at 4 workers, enforced only with >= 4 CPUs",
        "bar_enforced": bar_applies,
        "bar_skipped_reason": bar_skipped_reason,
        "out_of_core": out_of_core,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {args.output}")
    if failures:
        raise SystemExit("; ".join(failures))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--campaign", action="store_true",
        help="benchmark the sharded campaign runner",
    )
    mode.add_argument(
        "--sim", action="store_true",
        help="benchmark the discrete-event scheduler (calendar queue "
             "vs reference heap)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="sim mode: small sizes, one repeat, digest check only; "
             "campaign mode: generation old-vs-new digest parity plus "
             "one timed 1-worker run, no timing bars, no RSS "
             "probe",
    )
    parser.add_argument("--days", type=int, default=4,
                        help="campaign mode: campaign length")
    parser.add_argument("--peers", type=int, default=30)
    parser.add_argument("--prefixes", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="runs per tier; the best (minimum) time is reported",
    )
    parser.add_argument(
        "--no-bar", action="store_true",
        help="campaign mode: record numbers without enforcing the "
             "speedup / RSS-ratio bars (CI smoke runs; an explicit "
             "--rss-ceiling-mb is still enforced)",
    )
    parser.add_argument(
        "--skip-rss", action="store_true",
        help="campaign mode: skip the out-of-core peak-RSS probe",
    )
    parser.add_argument(
        "--rss-base-days", type=int, default=4,
        help="campaign mode: short-horizon run the RSS ratio compares "
             "against",
    )
    parser.add_argument(
        "--rss-days", type=int, default=30,
        help="campaign mode: long-horizon out-of-core run (the "
             "flat-memory claim: its peak RSS must stay within 1.25x "
             "of the short run's)",
    )
    parser.add_argument(
        "--rss-workers", type=int, default=1,
        help="campaign mode: worker count for the RSS probe runs",
    )
    parser.add_argument(
        "--rss-ceiling-mb", type=float, default=None,
        help="campaign mode: absolute peak-RSS ceiling for the long "
             "out-of-core run, enforced even with --no-bar",
    )
    parser.add_argument("--output", default=None)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    if args.sim:
        try:
            from bench_sim import run_sim_bench
        except ImportError:  # invoked as a package module
            from benchmarks.bench_sim import run_sim_bench

        if args.output is None:
            args.output = str(root / "BENCH_sim.json")
        run_sim_bench(args)
        return
    if args.output is None:
        args.output = str(root / "BENCH_campaign.json")
    run_campaign_bench(args)


if __name__ == "__main__":
    main()
