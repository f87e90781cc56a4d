"""Route-flap-storm forensics over session-event logs.

The paper (§3) describes storms narratively: overloaded routers miss
keepalives, peers mark them down, withdrawals and re-peering dumps
spread the load, "a storm that begins affecting ever larger sections
of the Internet.  Several route flap storms in the past year have
caused extended outages for several million network customers."

Given the session-transition log a collector keeps (see
:class:`~repro.collector.record.SessionEvent` and
:attr:`~repro.sim.routeserver.RouteServer.session_events`), this module
detects and characterizes storms:

- :func:`session_loss_bursts` — clusters of session losses in time;
- :func:`detect_storms` — bursts that qualify as storms (multiple
  distinct peers lost within a window), with spread and duration;
- :func:`flap_rate_series` — session-loss counts per time bin for
  plotting storm evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Set

from ..collector.record import SessionEvent

__all__ = ["StormEpisode", "session_loss_bursts", "detect_storms",
           "flap_rate_series"]


@dataclass
class StormEpisode:
    """One clustered burst of session losses."""

    start: float
    end: float
    losses: int
    peers: Set[int] = field(default_factory=set)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def spread(self) -> int:
        """Distinct peers losing sessions — the storm's blast radius."""
        return len(self.peers)


def session_loss_bursts(
    events: Iterable[SessionEvent],
    quiet_gap: float = 120.0,
) -> List[StormEpisode]:
    """Cluster session-loss events separated by under ``quiet_gap``.

    Returns one :class:`StormEpisode` per cluster (including singleton
    losses — filter by size/spread via :func:`detect_storms`).
    """
    losses = sorted(
        (e for e in events if e.is_session_loss), key=lambda e: e.time
    )
    episodes: List[StormEpisode] = []
    current: StormEpisode = None
    for event in losses:
        if current is not None and event.time - current.end <= quiet_gap:
            current.end = event.time
            current.losses += 1
            current.peers.add(event.peer_id)
        else:
            current = StormEpisode(
                start=event.time, end=event.time, losses=1,
                peers={event.peer_id},
            )
            episodes.append(current)
    return episodes


def detect_storms(
    events: Iterable[SessionEvent],
    quiet_gap: float = 120.0,
    min_losses: int = 3,
    min_spread: int = 2,
) -> List[StormEpisode]:
    """Bursts large and wide enough to call storms.

    ``min_losses`` filters ordinary single-session bounces;
    ``min_spread`` requires the failure to have *spread* beyond one
    peer — the defining property of the paper's storms.
    """
    return [
        episode
        for episode in session_loss_bursts(events, quiet_gap)
        if episode.losses >= min_losses and episode.spread >= min_spread
    ]


def flap_rate_series(
    events: Iterable[SessionEvent],
    bin_width: float = 60.0,
    end: float = None,
) -> List[int]:
    """Session losses per time bin (the storm-evolution curve)."""
    losses = [e.time for e in events if e.is_session_loss]
    if not losses:
        return []
    if end is None:
        end = max(losses) + bin_width
    n_bins = max(1, int(end // bin_width) + 1)
    series = [0] * n_bins
    for time in losses:
        index = int(time // bin_width)
        if 0 <= index < n_bins:
            series[index] += 1
    return series
