"""Fault injection: the exogenous events that seed instability.

"Routing instability has a number of possible origins, including
problems with leased lines, router failures, high levels of congestion
and software configuration errors" (§3).  This module provides the
schedulable fault generators the scenarios compose:

- :class:`CustomerFlapGenerator` — customer-circuit flaps: originated
  prefixes withdrawn and re-announced at Poisson times, optionally
  modulated by a diurnal intensity function (this is the knob that ties
  instability to network usage).
- :class:`MisconfiguredProvider` — the ISP-Y behaviour: periodically
  transmits withdrawals for prefixes it never announced.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

from ..bgp.messages import UpdateMessage
from ..net.prefix import Prefix
from .engine import Engine
from .router import Router

__all__ = [
    "CustomerFlapGenerator",
    "MisconfiguredProvider",
]


class CustomerFlapGenerator:
    """Customer-circuit flaps on a router's originated prefixes.

    Each flap picks one originated prefix, withdraws it, and
    re-originates after a short outage.  The instantaneous flap rate is
    ``base_rate * intensity(now)`` — pass a diurnal intensity (see
    :mod:`repro.workloads.diurnal`) to make instability track network
    usage, the correlation of §5.1.
    """

    __slots__ = (
        "engine",
        "router",
        "base_rate",
        "intensity",
        "outage_duration",
        "rng",
        "flap_count",
        "_running",
    )

    def __init__(
        self,
        engine: Engine,
        router: Router,
        base_rate: float = 1 / 600.0,
        intensity: Optional[Callable[[float], float]] = None,
        outage_duration: float = 5.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.engine = engine
        self.router = router
        self.base_rate = base_rate
        self.intensity = intensity or (lambda now: 1.0)
        self.outage_duration = outage_duration
        self.rng = rng or random.Random(1)
        self.flap_count = 0
        self._running = False

    def start(self) -> None:
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        # Thinning: draw at the peak rate, accept with probability
        # intensity/peak, so time-varying rates stay exact.
        delay = self.rng.expovariate(self.base_rate)
        self.engine.schedule(delay, self._maybe_flap)

    def _maybe_flap(self) -> None:
        if not self._running:
            return
        level = self.intensity(self.engine.now)
        if self.rng.random() < min(1.0, level):
            self._flap()
        self._schedule_next()

    def _flap(self) -> None:
        prefixes = self.router.originated
        if not prefixes:
            return
        prefix = self.rng.choice(prefixes)
        outage = self.outage_duration * self.rng.uniform(0.5, 2.0)
        self.router.flap_origin(prefix, down_for=outage)
        self.flap_count += 1


class MisconfiguredProvider:
    """The ISP-Y pathology: withdrawals for never-announced prefixes.

    "ISP-Y advertised six withdrawals for this prefix [in two minutes].
    ISP-Y, however, had never previously announced connectivity to this
    destination."  The faulty router periodically spews withdrawals for
    a set of foreign prefixes straight onto its sessions — modelling
    the buggy hardware/software the operators later confirmed.
    """

    __slots__ = (
        "engine",
        "router",
        "foreign_prefixes",
        "period",
        "batch_size",
        "rng",
        "withdrawals_emitted",
        "_running",
    )

    def __init__(
        self,
        engine: Engine,
        router: Router,
        foreign_prefixes: Sequence[Prefix],
        period: float = 30.0,
        batch_size: int = 0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.engine = engine
        self.router = router
        self.foreign_prefixes = list(foreign_prefixes)
        self.period = period
        #: prefixes withdrawn per burst (0 = all of them).
        self.batch_size = batch_size or len(self.foreign_prefixes)
        self.rng = rng or random.Random(3)
        self.withdrawals_emitted = 0
        self._running = False

    def start(self) -> None:
        self._running = True
        self.engine.schedule(self.period, self._burst)

    def stop(self) -> None:
        self._running = False

    def _burst(self) -> None:
        if not self._running or self.router.crashed:
            return
        victims = self.rng.sample(
            self.foreign_prefixes,
            min(self.batch_size, len(self.foreign_prefixes)),
        )
        message = UpdateMessage(withdrawn=tuple(sorted(victims)))
        for peer_id, session in self.router.sessions.items():
            if session.is_established:
                self.router._send_update(peer_id, message)
                self.withdrawals_emitted += len(victims)
        self.engine.schedule(self.period, self._burst)
