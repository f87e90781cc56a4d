"""Interval timers: the 30-second heartbeat behind the paper's spectra.

The paper traces its 30/60-second periodicity to "a popular router
vendor's inclusion of an unjittered 30 second interval timer on BGP's
update processing" (§4.2).  Two timer disciplines are modelled:

- **unjittered** — fires at exact multiples of the interval, phase-
  aligned to the configured origin.  All unjittered routers booted at
  the same origin share firing instants, and even routers with offset
  phases drift into lockstep under weak coupling (see
  :mod:`repro.sim.sync`).
- **jittered** — each period is drawn uniformly from
  ``[interval * (1 - jitter), interval]``, the RFC 4271 MinRouteAdver-
  tisementInterval recommendation that breaks synchronization.

:class:`IntervalTimer` is engine-attached and drives a callback;
:class:`MraiBatcher` is the per-peer output-batching discipline routers
use (accumulate route changes, flush on expiry).
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Set

from .engine import Engine, EventHandle

__all__ = ["IntervalTimer", "MraiBatcher", "DEFAULT_MRAI"]

#: The interval at the heart of the paper's findings.
DEFAULT_MRAI = 30.0


class IntervalTimer:
    """A repeating timer with optional jitter.

    ``jitter`` is the fractional shortening range: 0.0 gives exact
    periods (the pathological unjittered discipline); 0.25 gives the
    recommended ``uniform(0.75, 1.0) * interval``, drawn from ``rng``
    (``Random(0)`` when a jittered timer is given none; an unjittered
    timer never draws and constructs no generator).

    The timer's one :class:`EventHandle` is periodic (its ``period``
    is set), so the engine re-queues it inside the drain loop after
    each callback — no re-arm call, and no allocation per period.  A
    jittered timer draws its next period after the callback returns.
    """

    __slots__ = (
        "engine",
        "interval",
        "callback",
        "jitter",
        "rng",
        "phase",
        "fire_count",
        "_handle",
        "_running",
    )

    def __init__(
        self,
        engine: Engine,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
        phase: float = 0.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.engine = engine
        self.interval = interval
        self.callback = callback
        self.jitter = jitter
        # Only a jittered timer ever draws, so only a jittered timer
        # pays for seeding a default generator.
        if rng is None and jitter > 0.0:
            rng = random.Random(0)
        self.rng = rng
        self.phase = phase
        self.fire_count = 0
        self._handle: Optional[EventHandle] = None
        self._running = False

    def start(self) -> None:
        """Arm the timer from the current simulated time."""
        if self._running:
            return
        self._running = True
        engine = self.engine
        interval = self.interval
        now = engine.now
        if self.jitter == 0.0:
            # Phase-locked: fire at phase + k*interval, the discipline
            # that lets independent routers share firing instants.  The
            # quotient of a float floor-division is integral, so it can
            # stay a float.
            phase = self.phase
            next_time = phase + ((now - phase) // interval + 1.0) * interval
            if next_time <= now:
                next_time += interval
            handle = engine.schedule_at(next_time, self._fire)
        else:
            low = interval * (1.0 - self.jitter)
            handle = engine.schedule_at(
                now + self.rng.uniform(low, interval), self._fire_jittered
            )
        # A jittered period is redrawn before each re-queue.
        handle.period = interval
        self._handle = handle

    def stop(self) -> None:
        """Disarm; a later :meth:`start` re-arms from scratch.  From
        the timer's own callback this ends the handle's period, so a
        ``stop()``/``start()`` there leaves one series armed."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self.fire_count += 1
        self.callback()

    def _fire_jittered(self) -> None:
        self.fire_count += 1
        self.callback()
        handle = self._handle
        # Still fired: the callback neither stopped nor restarted us,
        # so the engine re-queues this handle after the drawn period.
        if handle is not None and handle.fired:
            # The draw :meth:`start` makes: ``Random.uniform(a, b)`` is
            # ``a + (b - a) * random()``, operand for operand.
            interval = self.interval
            low = interval * (1.0 - self.jitter)
            handle.period = low + (interval - low) * self.rng.random()


class MraiBatcher:
    """Per-peer MinRouteAdvertisementInterval output batching.

    Routers do not transmit each route change immediately; they mark
    prefixes *dirty* and flush the set when the interval timer expires
    ("most BGP implementations use a small... timer to pack outbound
    route updates into a smaller amount of updates than the number of
    different packets in which they arrived").

    The batcher only tracks dirtiness — what to send for each dirty
    prefix is decided at flush time by the router, which looks at its
    *current* table state.  That lost intermediate history is exactly
    the A1,A2,A1 → duplicate mechanism of §4.2.
    """

    __slots__ = ("_dirty", "_flush", "timer", "flush_count")

    def __init__(
        self,
        engine: Engine,
        flush: Callable[[Set], None],
        interval: float = DEFAULT_MRAI,
        jitter: float = 0.0,
        rng: Optional[random.Random] = None,
        phase: float = 0.0,
    ) -> None:
        self._dirty: Set = set()
        self._flush = flush
        self.timer = IntervalTimer(
            engine, interval, self._on_timer, jitter=jitter, rng=rng, phase=phase
        )
        self.flush_count = 0

    def start(self) -> None:
        self.timer.start()

    def stop(self) -> None:
        self.timer.stop()
        self._dirty.clear()

    def mark_dirty(self, prefix) -> None:
        """Record that ``prefix``'s advertisement may need updating."""
        self._dirty.add(prefix)

    def _on_timer(self) -> None:
        if not self._dirty:
            return
        batch, self._dirty = self._dirty, set()
        self.flush_count += 1
        self._flush(batch)

    @property
    def pending(self) -> int:
        return len(self._dirty)
