"""The per-layer budget: which numbers the traced run yields, and how
each is derived from spans, boundary counts and profile shares.

Layer = module name.  :data:`PER_LAYER` is the list ``BENCHMARK.json``
publishes; every workload reports every metric, with 0 for a layer the
workload never enters (``core.spill.*`` on ``campaign_mem``, the
``*.self_share`` of a workload that is not profiled).  Which end-to-end
metric each should move, on which workload, is in ``perf/README.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from tracing import (
    count_totals,
    covered_seconds,
    root_span,
    self_times,
    worker_busy_seconds,
)

#: (name, unit, better).  Work counts are "lower": fewer rows, bytes or
#: events for the same outputs is the better program.
PER_LAYER = (
    ("campaign.config.plan_s", "s", "lower"),
    ("workloads.generator.busy_s", "s", "lower"),
    ("workloads.generator.rows", "count", "lower"),
    ("workloads.generator.rows_per_s", "1/s", "higher"),
    ("core.spill.write_s", "s", "lower"),
    ("core.spill.write_bytes", "B", "lower"),
    ("core.spill.read_s", "s", "lower"),
    ("core.spill.read_bytes", "B", "lower"),
    ("core.spill.chunks_rejected", "count", "lower"),
    ("core.columns.classify_s", "s", "lower"),
    ("core.columns.classify_rows_per_s", "1/s", "higher"),
    ("core.columns.attr_table_size", "count", "lower"),
    ("campaign.fold.busy_s", "s", "lower"),
    ("campaign.results.merge_s", "s", "lower"),
    ("campaign.results.payload_bytes", "B", "lower"),
    ("campaign.results.figures_s", "s", "lower"),
    ("campaign.handoff.publish_s", "s", "lower"),
    ("campaign.handoff.collect_s", "s", "lower"),
    ("campaign.handoff.bytes", "B", "lower"),
    ("campaign.manifest.write_s", "s", "lower"),
    ("campaign.runner.pool_s", "s", "lower"),
    ("campaign.runner.worker_busy_s", "s", "lower"),
    ("campaign.runner.parallel_efficiency", "ratio", "higher"),
    ("campaign.runner.shard_skew", "ratio", "lower"),
    ("collector.mrt.decode_s", "s", "lower"),
    ("collector.mrt.rows_per_s", "1/s", "higher"),
    ("collector.mrt.bytes_read", "B", "lower"),
    ("collector.mrt.self_share", "ratio", "lower"),
    ("bgp.wire.self_share", "ratio", "lower"),
    ("bgp.attributes.self_share", "ratio", "lower"),
    ("sim.scenarios.build_s", "s", "lower"),
    ("sim.engine.run_s", "s", "lower"),
    ("sim.engine.events", "count", "lower"),
    ("sim.engine.host_us_per_event", "us", "lower"),
    ("sim.partition.digest_s", "s", "lower"),
    ("sim.engine.self_share", "ratio", "lower"),
    ("sim.timers.self_share", "ratio", "lower"),
    ("sim.router.self_share", "ratio", "lower"),
    ("sim.link.self_share", "ratio", "lower"),
    ("bgp.session.self_share", "ratio", "lower"),
    ("bgp.fsm.self_share", "ratio", "lower"),
    ("bgp.rib.self_share", "ratio", "lower"),
    ("other.self_share", "ratio", "lower"),
    ("analysis.detection.busy_s", "s", "lower"),
    ("analysis.detection.rows", "count", "lower"),
    ("harness.trace_overhead_share", "ratio", "lower"),
    ("harness.unattributed_share", "ratio", "lower"),
)

_SHARE = ".self_share"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[dict],
    outcome: dict,
    workers: int,
    untraced_wall_s: float,
    shares: Optional[Dict[str, float]],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced run (``outcome``
    is what the workload's call reported about itself).

    ``untraced_wall_s`` is the timed runs' wall reading (tracing
    overhead is the traced wall against it); ``shares`` the profile run's
    self-time shares by module, or None when the workload is not
    profiled."""
    seconds = self_times(spans)
    counts = count_totals(spans)
    root = root_span(spans)
    wall = root["end"] - root["start"]

    def s(name: str) -> float:
        return seconds.get(name, 0.0)

    def c(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    landings = [
        span["end"] - root["start"]
        for span in spans
        if span["name"] == "campaign.handoff.collect"
    ]
    worker_busy = worker_busy_seconds(spans)
    values = {
        "campaign.config.plan_s": s("campaign.config.plan"),
        "workloads.generator.busy_s": s("workloads.generator.busy"),
        "workloads.generator.rows": c("workloads.generator.busy", "rows"),
        "workloads.generator.rows_per_s": _ratio(
            c("workloads.generator.busy", "rows"),
            s("workloads.generator.busy"),
        ),
        "core.spill.write_s": s("core.spill.write"),
        "core.spill.write_bytes": c("core.spill.write", "bytes"),
        "core.spill.read_s": s("core.spill.read"),
        "core.spill.read_bytes": c("core.spill.read", "bytes"),
        "core.spill.chunks_rejected": c("core.spill.read", "errors"),
        "core.columns.classify_s": s("core.columns.classify"),
        "core.columns.classify_rows_per_s": _ratio(
            c("core.columns.classify", "rows"), s("core.columns.classify")
        ),
        "core.columns.attr_table_size": max(
            (
                span["counts"].get("attrs", 0)
                for span in spans
                if span["name"] == "core.columns.classify"
            ),
            default=0,
        ),
        "campaign.fold.busy_s": s("campaign.fold.busy"),
        "campaign.results.merge_s": s("campaign.results.merge"),
        "campaign.results.payload_bytes": c(
            "campaign.manifest.write", "payload_bytes"
        ),
        "campaign.results.figures_s": s("campaign.results.figures"),
        "campaign.handoff.publish_s": s("campaign.handoff.publish"),
        "campaign.handoff.collect_s": s("campaign.handoff.collect"),
        "campaign.handoff.bytes": c("campaign.handoff.publish", "bytes"),
        "campaign.manifest.write_s": s("campaign.manifest.write"),
        "campaign.runner.pool_s": s("campaign.runner.pool"),
        "campaign.runner.worker_busy_s": worker_busy,
        "campaign.runner.parallel_efficiency": (
            _ratio(worker_busy, workers * wall) if workers > 1 else 0.0
        ),
        # Last shard landing against the mean landing: 1.0 when every
        # shard lands together, larger when one straggles.
        "campaign.runner.shard_skew": (
            _ratio(max(landings), sum(landings) / len(landings))
            if landings
            else 0.0
        ),
        "collector.mrt.decode_s": s("collector.mrt.decode"),
        "collector.mrt.rows_per_s": _ratio(
            c("collector.mrt.decode", "rows"), s("collector.mrt.decode")
        ),
        "collector.mrt.bytes_read": outcome.get("archive_bytes", 0),
        "sim.scenarios.build_s": s("sim.scenarios.build"),
        "sim.engine.run_s": s("sim.engine.run"),
        "sim.engine.events": c("sim.engine.run", "events"),
        "sim.engine.host_us_per_event": _ratio(
            s("sim.engine.run") * 1e6, c("sim.engine.run", "events")
        ),
        "sim.partition.digest_s": s("sim.partition.digest"),
        "analysis.detection.busy_s": s("analysis.detection.busy"),
        "analysis.detection.rows": c("analysis.detection.busy", "rows"),
        "harness.trace_overhead_share": _ratio(wall, untraced_wall_s) - 1.0,
        "harness.unattributed_share": 1.0 - _ratio(
            covered_seconds(spans), wall
        ),
    }
    named = [
        name[: -len(_SHARE)]
        for name, _, _ in PER_LAYER
        if name.endswith(_SHARE) and name != "other" + _SHARE
    ]
    for module in named:
        values[module + _SHARE] = (shares or {}).get(module, 0.0)
    values["other" + _SHARE] = (
        1.0 - sum(values[module + _SHARE] for module in named)
        if shares
        else 0.0
    )
    return {name: float(values[name]) for name, _, _ in PER_LAYER}
