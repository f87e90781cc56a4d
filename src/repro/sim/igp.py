"""IGP↔BGP redistribution and its misconfigured oscillation.

The paper (§4.2): "Another plausible explanation for the source of the
periodic routing instability may be the improper configuration of the
interaction between interior gateway protocols (IGP) and BGP...  Since
the conversion between protocols is lossy, path information (e.g.,
ASPATH) is not preserved across protocols and routers will not be able
to detect an inter-protocol routing update oscillation.  This type of
interaction is highly suspect as most IGP protocols utilize internal
timers based on some multiple of 30 seconds."

The model: a border router redistributes between a small IGP table and
its BGP origination set.  With *mutual* redistribution configured and
no route filtering (the misconfiguration), a prefix cycles:

1. The IGP holds a native route for P → redistributed into BGP, the
   router originates P.
2. On the next IGP timer tick the BGP route is redistributed *back*
   into the IGP with a lower administrative distance than the native
   route; the native IGP route is displaced.
3. The IGP route for P is now derived from BGP — so the IGP→BGP
   redistribution no longer fires (the route's provenance is BGP), and
   the origination is withdrawn.
4. With the BGP route gone, the BGP-derived IGP route vanishes, the
   native IGP route returns, and the cycle restarts at 1.

ASPATH is lost at each crossing, so BGP's loop detection never sees the
cycle.  The result is a W/A oscillation paced exactly by the IGP timer
— a mechanistic source of the 30-second line in Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, Optional

from ..net.prefix import Prefix
from .engine import Engine
from .router import Router
from .timers import IntervalTimer

__all__ = ["RouteSource", "IgpTable", "IgpBgpRedistribution"]


class RouteSource(Enum):
    """Where an IGP table entry came from."""

    NATIVE = auto()          #: learned inside the IGP (OSPF/RIP neighbor)
    REDISTRIBUTED = auto()   #: injected from BGP


@dataclass(slots=True)
class _IgpEntry:
    source: RouteSource
    metric: int


class IgpTable:
    """A toy IGP routing table: prefix → (source, metric).

    Lower metric wins; BGP-redistributed routes get ``bgp_metric``
    (the misconfiguration leaves it *better* than native routes, which
    is what makes the displacement in step 2 happen).
    """

    __slots__ = ("bgp_metric", "native_metric", "_entries", "_native")

    def __init__(self, bgp_metric: int = 1, native_metric: int = 10) -> None:
        self.bgp_metric = bgp_metric
        self.native_metric = native_metric
        self._entries: Dict[Prefix, _IgpEntry] = {}
        self._native: Dict[Prefix, int] = {}

    def add_native(self, prefix: Prefix, metric: Optional[int] = None) -> None:
        """A route learned natively inside the IGP."""
        self._native[prefix] = (
            metric if metric is not None else self.native_metric
        )
        self._recompute(prefix, bgp_available=self.is_bgp_derived(prefix))

    def entry(self, prefix: Prefix) -> Optional[_IgpEntry]:
        return self._entries.get(prefix)

    def is_bgp_derived(self, prefix: Prefix) -> bool:
        entry = self._entries.get(prefix)
        return entry is not None and entry.source is RouteSource.REDISTRIBUTED

    def apply_bgp(self, prefix: Prefix, available: bool) -> None:
        """Run the BGP→IGP redistribution rule for one prefix."""
        self._recompute(prefix, bgp_available=available)

    def _recompute(self, prefix: Prefix, bgp_available: bool) -> None:
        native_metric = self._native.get(prefix)
        candidates = []
        if native_metric is not None:
            candidates.append(_IgpEntry(RouteSource.NATIVE, native_metric))
        if bgp_available:
            candidates.append(
                _IgpEntry(RouteSource.REDISTRIBUTED, self.bgp_metric)
            )
        if not candidates:
            self._entries.pop(prefix, None)
            return
        self._entries[prefix] = min(candidates, key=lambda e: e.metric)


class IgpBgpRedistribution:
    """Mutual IGP↔BGP redistribution on one border router.

    Every ``igp_period`` seconds (the IGP's internal timer) the
    redistribution rules run:

    - IGP→BGP: prefixes whose IGP entry is NATIVE are originated into
      BGP; prefixes whose IGP entry is REDISTRIBUTED (or absent) have
      their origination withdrawn.
    - BGP→IGP: the router's BGP origination state is injected into the
      IGP table.

    With ``filtered=True`` (the correct configuration) BGP-derived IGP
    routes are excluded from the BGP→IGP injection, which breaks the
    loop and the oscillation stops after one settling tick — the ablation
    contrast for the misconfiguration study.
    """

    __slots__ = (
        "engine",
        "router",
        "igp",
        "filtered",
        "oscillation_count",
        "_originating",
        "timer",
    )

    def __init__(
        self,
        engine: Engine,
        router: Router,
        igp: IgpTable,
        igp_period: float = 30.0,
        filtered: bool = False,
    ) -> None:
        self.engine = engine
        self.router = router
        self.igp = igp
        self.filtered = filtered
        self.oscillation_count = 0
        self._originating: set = set()
        self.timer = IntervalTimer(engine, igp_period, self._tick)

    def start(self) -> None:
        self.timer.start()

    def stop(self) -> None:
        self.timer.stop()

    def _tick(self) -> None:
        prefixes = set(self.igp._native) | set(self.igp._entries) | set(
            self._originating
        )
        for prefix in sorted(prefixes):
            self._redistribute(prefix)

    def _redistribute(self, prefix: Prefix) -> None:
        entry = self.igp.entry(prefix)
        should_originate = (
            entry is not None and entry.source is RouteSource.NATIVE
        )
        if should_originate and prefix not in self._originating:
            self.router.originate(prefix)
            self._originating.add(prefix)
            self.oscillation_count += 1
        elif not should_originate and prefix in self._originating:
            self.router.withdraw_origin(prefix)
            self._originating.discard(prefix)
            self.oscillation_count += 1
        # BGP→IGP leg.  The misconfiguration injects every originated
        # route back into the IGP; the correct configuration filters
        # out routes whose IGP copy would be BGP-derived.
        bgp_available = prefix in self._originating
        if self.filtered:
            # Correct config: never inject BGP routes back into the IGP
            # on the same router that redistributes IGP into BGP.
            self.igp.apply_bgp(prefix, available=False)
        else:
            self.igp.apply_bgp(prefix, available=bgp_available)
