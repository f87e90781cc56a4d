"""Network convergence measurement.

The paper names "delays in the time for network convergence" as one of
instability's three primary effects, without measuring it directly —
the event simulator lets the reproduction measure it.

Two tools:

- :func:`settle_time` — given the update records observed at a
  measurement point and the time of an injected event, the time until
  updates about the affected prefix stop (the network has converged);
- :class:`ConvergenceProbe` — drives a scenario: flaps a prefix,
  observes the collector sink, and reports per-event convergence
  times, suitable for comparing topologies/timer settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..collector.record import UpdateRecord
from ..net.prefix import Prefix

__all__ = ["settle_time", "ConvergenceProbe", "ConvergenceReport"]


def settle_time(
    records: Iterable[UpdateRecord],
    prefix: Prefix,
    event_time: float,
    horizon: float = 600.0,
) -> Optional[float]:
    """Seconds from ``event_time`` until the last update for
    ``prefix`` within ``horizon``; None if no updates were seen.

    This is convergence as a measurement point experiences it: the
    burst of updates triggered by the event dies out once every router
    has settled on its new best path.
    """
    last = None
    for record in records:
        if record.prefix != prefix:
            continue
        if event_time <= record.time <= event_time + horizon:
            if last is None or record.time > last:
                last = record.time
    if last is None:
        return None
    return last - event_time


@dataclass
class ConvergenceReport:
    """Convergence times for a batch of probe events."""

    times: List[float]

    @property
    def mean(self) -> float:
        return sum(self.times) / len(self.times) if self.times else 0.0

    @property
    def worst(self) -> float:
        return max(self.times) if self.times else 0.0

    @property
    def count(self) -> int:
        return len(self.times)


class ConvergenceProbe:
    """Measure convergence in a live scenario.

    Parameters
    ----------
    engine, sink:
        The scenario's event engine and its route-server sink (anything
        iterable over :class:`UpdateRecord`).
    settle_horizon:
        How long after an event to watch for related updates.
    """

    def __init__(self, engine, sink, settle_horizon: float = 600.0) -> None:
        self.engine = engine
        self.sink = sink
        self.settle_horizon = settle_horizon
        self._events: List[tuple] = []

    def flap(self, router, prefix: Prefix, down_for: float = 5.0) -> None:
        """Inject one probe flap and remember its timestamp."""
        self._events.append((prefix, self.engine.now))
        router.flap_origin(prefix, down_for=down_for)

    def report(self) -> ConvergenceReport:
        """Convergence times for all injected events (run the engine
        past the settle horizon first)."""
        records = list(self.sink)
        times: List[float] = []
        for prefix, event_time in self._events:
            settled = settle_time(
                records, prefix, event_time, self.settle_horizon
            )
            if settled is not None:
                times.append(settled)
        return ConvergenceReport(times=times)
