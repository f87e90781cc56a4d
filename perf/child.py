"""One benchmark repeat, in a process of its own.

``python perf/child.py '<request json>'`` builds one workload's timed
call (imports and config construction: start-up), runs it once, checks
nothing itself, and prints one JSON object on the last line of stdout:
the outcome (units, ops, digests), ``wall_s`` for the timed call, and
``call_started`` — a ``perf_counter`` reading the parent subtracts its
own spawn reading from to get start-up time.

Request: ``{"workload", "params", "mode", "work"}`` with mode
``timed`` (nothing installed), ``traced`` (spans around layer calls,
written to ``work/trace/spans.json``) or ``profile`` (cProfile around
the call; self-time shares by source module in the outcome).

Two more modes run a workload's untimed hooks here, so that the
orchestrator never imports the program: ``prepare`` (the one-time
set-up; prints the fastest of its repetitions and the ``params`` it
extended) and ``expected`` (digests from an independent path).
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
import time
import traceback
from pathlib import Path
from typing import Dict

from tracing import ROOT, Tracer
from workloads import WORKLOADS, prepare_best


def module_shares(profiler: cProfile.Profile) -> Dict[str, float]:
    """Share of profiled self time (``tottime``) by source module:
    ``sim.engine``, ``bgp.wire`` … for files of the ``repro`` package,
    ``other`` for everything else (stdlib, NumPy, built-ins)."""
    import repro

    package = Path(repro.__file__).resolve().parent
    seconds: Dict[str, float] = {}
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        path = Path(filename)
        module = "other"
        if package in path.parents:
            relative = path.relative_to(package).with_suffix("")
            parts = [p for p in relative.parts if p != "__init__"]
            module = ".".join(parts)
        seconds[module] = seconds.get(module, 0.0) + row[2]
    total = sum(seconds.values())
    return {module: value / total for module, value in seconds.items()}


def run(request: dict) -> dict:
    workload = WORKLOADS[request["workload"]]
    mode = request["mode"]
    params = request["params"]
    work = Path(request["work"])
    if mode == "prepare":
        seconds = prepare_best(workload, params, work)
        return {"prepare_s": seconds, "params": params}
    if mode == "expected":
        return {"digests": workload.expected(params)}
    trace_dir = work / "trace" if mode == "traced" else None
    tracer = Tracer(enabled=mode == "traced", spill_dir=trace_dir)
    if mode == "traced":
        # Before build: build binds the entry points it imports.
        workload.instrument(tracer)
    call, finish = workload.build(params, tracer)
    profiler = cProfile.Profile() if mode == "profile" else None

    started = time.perf_counter()
    if profiler is not None:
        raw = profiler.runcall(call)
    else:
        with tracer.span(ROOT):
            raw = call()
    ended = time.perf_counter()

    outcome = finish(raw)
    outcome["call_started"] = started
    outcome["wall_s"] = ended - started
    if profiler is not None:
        outcome["self_shares"] = module_shares(profiler)
    if trace_dir is not None:
        (trace_dir / "spans.json").write_text(json.dumps(tracer.collect()))
    return outcome


def main() -> int:
    try:
        outcome = run(json.loads(sys.argv[1]))
    except Exception:
        # The boundary of the repeat: the parent counts every op of
        # this repeat as failed and shows the traceback.
        traceback.print_exc()
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
