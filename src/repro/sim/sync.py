"""Floyd–Jacobson self-synchronization of periodic routing messages.

The paper (§4.2) conjectures that the unjittered BGP interval timers on
many border routers satisfy Floyd & Jacobson's *Periodic Message*
model [ToN 1994] and may "undergo abrupt synchronization", so that many
routers transmit updates simultaneously — overwhelming recipients.

This module implements that model.  Each router is a single-server
periodic oscillator:

- When its interval timer expires, it prepares its update batch (cost
  ``processing_time``), transmits, and restarts the timer from the
  moment preparation *began* (plus jitter, if configured).
- Incoming messages — both neighbours' periodic batches (cost
  ``coupling`` each) and exogenous bursts of triggered updates that
  reach every router (cost ``external_cost``, Poisson rate
  ``external_rate``) — occupy the same single server.

The weak coupling: a router whose timer expires while the server is
busy begins preparation only when the server frees, so routers caught
by the *same* busy window restart their timers at the same instant and
fire together from then on.  Shared busy windows — an exchange point's
routers all receive the same update bursts — therefore merge phases;
cluster broadcasts then widen the windows, and the system snaps into
lockstep.  RFC-style timer jitter re-spreads the restarts and prevents
the lock, which is exactly the recommended fix.

Defaults are chosen in the synchronizing regime so the ablation
(jitter 0 → coherence ≈ 1; jitter 0.25 → incoherent) is robust;
:func:`phase_coherence` (the Kuramoto order parameter) quantifies it.
"""

from __future__ import annotations

import cmath
import math
import random
from typing import List, Optional, Sequence

from .engine import Engine

__all__ = ["PeriodicRouter", "SynchronizationStudy", "phase_coherence"]


class PeriodicRouter:
    """One single-server oscillator in the periodic-message system.

    The timer and transmit events are re-armed via
    :meth:`Engine.reschedule`: each router holds two long-lived handles
    (timer expiry, transmit completion) that are reused every period
    instead of allocating fresh ones — with unjittered phase-locked
    populations the per-period cost is an append to an existing bucket.
    """

    __slots__ = (
        "engine",
        "system",
        "index",
        "period",
        "processing_time",
        "jitter",
        "processing_noise",
        "rng",
        "fire_times",
        "_busy_until",
        "_timer_handle",
        "_transmit_handle",
    )

    def __init__(
        self,
        engine: Engine,
        system: "SynchronizationStudy",
        index: int,
        period: float,
        processing_time: float,
        jitter: float,
        processing_noise: float,
        rng: random.Random,
        initial_phase: float,
    ) -> None:
        self.engine = engine
        self.system = system
        self.index = index
        self.period = period
        self.processing_time = processing_time
        self.jitter = jitter
        self.processing_noise = processing_noise
        self.rng = rng
        self.fire_times: List[float] = []
        self._busy_until = 0.0
        self._timer_handle = engine.schedule(initial_phase, self._timer_expired)
        self._transmit_handle = None

    def _noisy(self, duration: float) -> float:
        if self.processing_noise == 0.0:
            return duration
        spread = self.processing_noise
        return duration * self.rng.uniform(1.0 - spread, 1.0 + spread)

    def _timer_expired(self) -> None:
        """Prepare and transmit the periodic batch.

        Preparation waits for the single server; the timer restarts
        from the (possibly delayed) preparation start.  Routers whose
        expiries fell inside one shared busy window therefore restart
        together — the capture step of the synchronization.
        """
        start = max(self.engine.now, self._busy_until)
        finish = start + self._noisy(self.processing_time)
        self._busy_until = finish
        transmit = self._transmit_handle
        if transmit is None:
            self._transmit_handle = self.engine.schedule_at(
                finish, self._transmit
            )
        else:
            self._transmit_handle = self.engine.reschedule(transmit, finish)
        sleep = self.period
        if self.jitter > 0.0:
            sleep *= self.rng.uniform(1.0 - self.jitter, 1.0)
        self._timer_handle = self.engine.reschedule(
            self._timer_handle, start + sleep
        )

    def _transmit(self) -> None:
        now = self.engine.now
        self.fire_times.append(now)
        self.system.broadcast(self.index, now)

    def receive(self, work: float) -> None:
        """Queue incoming-message processing on the single server."""
        start = max(self.engine.now, self._busy_until)
        self._busy_until = start + self._noisy(work)


class SynchronizationStudy:
    """A population of weakly-coupled periodic routers.

    Parameters mirror the Periodic Message model: ``n`` routers with
    interval ``period``, per-round preparation cost ``processing_time``,
    per-received-message cost ``coupling``, and timer ``jitter``.
    ``external_rate`` / ``external_cost`` model exogenous update bursts
    (route flaps elsewhere in the network) that reach *every* router at
    the same instant — the shared busy windows that nucleate clusters.
    Initial phases are uniform over one period.

    ``engine`` lets the caller supply the scheduler (the differential
    benchmark runs the same study on the calendar-queue engine and the
    reference heap engine); by default a fresh :class:`Engine` is used.
    """

    __slots__ = (
        "engine",
        "period",
        "coupling",
        "external_rate",
        "external_cost",
        "external_events",
        "_ext_rng",
        "routers",
    )

    def __init__(
        self,
        n: int = 12,
        period: float = 30.0,
        processing_time: float = 0.2,
        coupling: float = 0.4,
        jitter: float = 0.0,
        processing_noise: float = 0.0,
        external_rate: float = 0.05,
        external_cost: float = 3.0,
        seed: int = 0,
        engine: Optional[Engine] = None,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.period = period
        self.coupling = coupling
        self.external_rate = external_rate
        self.external_cost = external_cost
        self.external_events = 0
        self._ext_rng = random.Random(seed + 999_983)
        rng = random.Random(seed)
        self.routers = [
            PeriodicRouter(
                self.engine,
                self,
                index=i,
                period=period,
                processing_time=processing_time,
                jitter=jitter,
                processing_noise=processing_noise,
                rng=random.Random(seed * 1000 + 1 + i),
                initial_phase=rng.uniform(0.0, period),
            )
            for i in range(n)
        ]
        if external_rate > 0.0:
            self.engine.schedule(
                self._ext_rng.expovariate(external_rate), self._external_burst
            )

    def _external_burst(self) -> None:
        """An exogenous update burst arriving at every router at once."""
        self.external_events += 1
        for router in self.routers:
            router.receive(self.external_cost)
        self.engine.schedule(
            self._ext_rng.expovariate(self.external_rate), self._external_burst
        )

    def broadcast(self, sender: int, when: float) -> None:
        """Deliver the sender's periodic message to every other router."""
        for i, router in enumerate(self.routers):
            if i != sender:
                router.receive(self.coupling)

    def advance(self, duration: float) -> None:
        """Advance the study to simulated time ``duration``.

        (The canonical entry point; scripted runs should go through
        :func:`repro.sim.simulate` with the ``sync_population``
        scenario instead of driving the study directly.)
        """
        self.engine.run_until(duration)

    def final_coherence(self) -> float:
        """Phase coherence of the last firing per router."""
        lasts = [r.fire_times[-1] for r in self.routers if r.fire_times]
        return phase_coherence(lasts, self.period)


def phase_coherence(times: Sequence[float], period: float) -> float:
    """Kuramoto order parameter of firing times modulo ``period``.

    1.0 = all routers fire at the same phase (full synchronization);
    near 0 = phases uniformly spread.
    """
    if not times:
        return 0.0
    total = sum(
        cmath.exp(2j * math.pi * (t % period) / period) for t in times
    )
    return abs(total) / len(times)
