"""Spans recorded from ``perf/`` around each layer's public calls.

The program under test has no telemetry of its own (``repro.obs`` is a
later issue), so the traced run wraps the public functions a layer
exposes — ``write_chunk``, ``TraceGenerator.day_columns``,
``Engine.run_until`` … — from the outside and runs the *same* call the
timed runs make.  Nothing here is ever installed in a timed run.

A span is ``{id, parent, name, start, end, pid, counts}``; spans stay in
memory until the traced call returns.  Start/end are
``time.perf_counter`` readings, which on Linux is ``CLOCK_MONOTONIC``
and therefore comparable between the campaign parent and its forked
pool workers.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

#: The span perf/ opens around the whole timed call.
ROOT = "harness.call"


class Tracer:
    """In-memory span recorder; ``enabled=False`` records nothing, so
    workload code can open spans unconditionally."""

    def __init__(self, enabled: bool, spill_dir: Optional[Path] = None):
        self.enabled = enabled
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self._stack: List[str] = []
        self._serial = 0
        self._spill_dir = spill_dir

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Open a span; the yielded dict takes counts measured at the
        boundary (rows, bytes, …)."""
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        pid = os.getpid()
        self._serial += 1
        span = {
            "id": f"{pid}:{self._serial}",
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "pid": pid,
            "counts": counts,
            "start": time.perf_counter(),
        }
        self._stack.append(span["id"])
        try:
            yield counts
        except Exception:
            counts["errors"] = counts.get("errors", 0) + 1
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def flush_worker(self) -> None:
        """In a forked pool worker: write this process's spans where
        the parent will find them (pool workers are terminated, not
        joined, so there is no exit hook to rely on)."""
        pid = os.getpid()
        if not self.enabled or pid == self.pid or self._spill_dir is None:
            return
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = []
        self._serial += 1
        path = self._spill_dir / f"worker-{pid}-{self._serial}.json"
        path.write_text(json.dumps(mine))

    def collect(self) -> List[dict]:
        """All spans of the traced call: this process's plus whatever
        forked workers flushed."""
        spans = list(self.spans)
        if self._spill_dir is not None:
            for path in sorted(self._spill_dir.glob("worker-*.json")):
                spans.extend(json.loads(path.read_text()))
        return spans


def instrument(
    tracer: Tracer,
    owner: object,
    attr: str,
    name: str,
    count: Optional[Callable[[tuple, object], dict]] = None,
    after: Optional[Callable[[], None]] = None,
) -> None:
    """Replace ``owner.attr`` with a wrapper that records a span named
    ``name`` around every call.  ``count(args, result)`` adds boundary
    counts; ``after`` runs once the span has closed."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        try:
            with tracer.span(name) as counts:
                result = original(*args, **kwargs)
                if count is not None:
                    counts.update(count(args, result))
                return result
        finally:
            if after is not None:
                after()

    # getattr on a classmethod returns it already bound to the class.
    bound = inspect.ismethod(original)
    setattr(owner, attr, staticmethod(wrapper) if bound else wrapper)


def instrument_generator(
    tracer: Tracer,
    owner: object,
    attr: str,
    name: str,
    count: Callable[[object], dict],
) -> None:
    """Like :func:`instrument` for a generator function: one span per
    ``next()``, so only time spent producing items is attributed."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        iterator = original(*args, **kwargs)
        while True:
            with tracer.span(name) as counts:
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                counts.update(count(item))
            yield item

    setattr(owner, attr, wrapper)


# -- budget -----------------------------------------------------------------


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self seconds by span name: a span's duration minus the part its
    same-process child spans cover.  (A forked worker's top-level spans
    name the parent's open span as their parent but run beside it, not
    inside it, so they subtract nothing.)"""
    covered: Dict[str, float] = {}
    process: Dict[str, int] = {s["id"]: s["pid"] for s in spans}
    for span in spans:
        parent = span["parent"]
        if parent is not None and process.get(parent) == span["pid"]:
            covered[parent] = (
                covered.get(parent, 0.0) + span["end"] - span["start"]
            )
    out: Dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def count_totals(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Boundary counts summed by span name."""
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        bucket = out.setdefault(span["name"], {})
        for key, value in span["counts"].items():
            bucket[key] = bucket.get(key, 0) + value
    return out


def root_span(spans: List[dict]) -> dict:
    (root,) = [s for s in spans if s["name"] == ROOT]
    return root


def covered_seconds(spans: List[dict]) -> float:
    """Length of the part of the root interval during which at least
    one layer span — in any process — is open.  For a single-process
    workload this equals the sum of layer self times; with pool workers
    it counts the parent's wait as attributed exactly while a worker is
    busy."""
    root = root_span(spans)
    intervals = sorted(
        (max(s["start"], root["start"]), min(s["end"], root["end"]))
        for s in spans
        if s["name"] != ROOT
    )
    total = 0.0
    reach = root["start"]
    for start, end in intervals:
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def worker_busy_seconds(spans: List[dict]) -> float:
    """Seconds pool workers spent inside layer spans (top-level worker
    spans only, so nesting is not double counted)."""
    root = root_span(spans)
    own = {s["id"] for s in spans if s["pid"] != root["pid"]}
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["pid"] != root["pid"] and s["parent"] not in own
    )
