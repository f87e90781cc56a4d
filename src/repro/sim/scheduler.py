"""The formal scheduler contract of the simulation substrate.

Both engines — the calendar-queue :class:`~repro.sim.engine.Engine`
and the plain-heap :class:`~repro.sim.refengine.ReferenceEngine`
oracle — are :class:`EventScheduler` implementations.  Scenario code
written against this protocol (routers, timers, links, fault
injectors, the :func:`repro.sim.scenarios.simulate` façade) runs
unchanged on either; the differential test suite leans on that
substitutability.

The contract, beyond the signatures:

- Events fire in ``(time, insertion-order)`` order; two events at the
  same instant fire in the order they were scheduled.  Both
  implementations must reproduce this order *bit-exactly* — it is what
  the engine-equivalence digests pin down.
- ``schedule``/``schedule_at`` return an :class:`~repro.sim.engine.EventHandle`
  that can be cancelled (directly or via :meth:`EventScheduler.cancel`)
  or re-armed via :meth:`EventScheduler.reschedule`.
- A handle whose ``period`` is set (a positive float; None by
  default) is periodic: after its callback returns, the scheduler
  re-queues it at ``time + period`` as if it were scheduled at that
  moment, unless the callback re-armed it (``reschedule``) or
  cancelled it.  Cancelling a periodic handle from its own callback
  ends the series; the callback may also change ``period`` for the
  next re-queue.  ``reschedule`` carries the period along: from the
  handle's own callback it moves the series to ``time``.
- ``run_until(end_time)`` fires everything with ``time <= end_time``
  and then advances the clock to ``end_time`` even if idle;
  ``run()`` drains the queue; ``step()`` fires exactly one event.
- ``close()`` ends a simulation: it drops the queue, marks each live
  handle cancelled (so a held handle's ``cancel()`` does nothing) and
  clears its callback and args.  Objects that hold their own handles
  form reference cycles through the queue; after ``close()`` reference
  counting frees them.  It is not called from a callback.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol, runtime_checkable

from .engine import EventHandle

__all__ = ["EventScheduler"]


@runtime_checkable
class EventScheduler(Protocol):
    """Structural protocol for simulation schedulers.

    ``isinstance(obj, EventScheduler)`` checks method presence at
    runtime; the ordering semantics above are enforced by the
    differential tests, not the type system.
    """

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        ...

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still queued."""
        ...

    def schedule(
        self, delay: float, callback: Callable, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        ...

    def schedule_at(
        self, time: float, callback: Callable, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        ...

    def reschedule(self, handle: EventHandle, time: float) -> EventHandle:
        """Re-arm ``handle`` at ``time``; returns the handle queued."""
        ...

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending handle (no-op if fired or already
        cancelled)."""
        ...

    def step(self) -> bool:
        """Process the next pending event; False if the queue is empty."""
        ...

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events``)."""
        ...

    def run_until(
        self, end_time: float, max_events: Optional[int] = None
    ) -> int:
        """Run events with time <= ``end_time``; advance the clock."""
        ...

    def next_event_time(self) -> Optional[float]:
        """When the next live event fires, or None."""
        ...

    def close(self) -> None:
        """Drop every queued event and each live handle's callback."""
        ...
