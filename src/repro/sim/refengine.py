"""Reference event scheduler: the original binary-heap engine.

This is the pre-calendar-queue :class:`~repro.sim.engine.Engine`,
preserved verbatim as a *differential oracle*: one ``heappush`` and one
``heappop`` per event, handles compared by ``EventHandle.__lt__`` in
Python.  ``tests/test_engine_equivalence.py`` drives randomized
schedule/cancel/re-arm workloads through both engines and asserts
identical ``(time, seq)`` firing order;
``tests/test_parallel_sim.py::test_simulate_engines_agree`` checks
old-vs-new digests on every named scenario.

It shares :class:`~repro.sim.engine.EventHandle` (handles are created
with ``engine=None`` so cancellation skips the calendar queue's
bookkeeping) and implements the same public surface — ``schedule``,
``schedule_at``, ``reschedule``, ``step``, ``run``, ``run_until``,
``pending``, ``next_event_time``, ``close`` — so any scenario accepting
an engine instance runs unmodified on either.  A periodic handle is
pushed back after its callback with a fresh ``seq``, exactly as a
fresh ``schedule_at`` at that moment would be.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from .engine import EventHandle, SimulationError

__all__ = ["ReferenceEngine"]


class ReferenceEngine:
    """The original heap-based event queue and simulation clock."""

    __slots__ = ("_now", "_queue", "_seq", "events_processed")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: List[EventHandle] = []
        self._seq = itertools.count()
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})"
            )
        handle = EventHandle(time, next(self._seq), callback, args)
        heapq.heappush(self._queue, handle)
        return handle

    def reschedule(self, handle: EventHandle, time: float) -> EventHandle:
        """Same contract as :meth:`Engine.reschedule`, but every re-arm
        allocates — exactly the baseline behavior the calendar queue is
        measured against.  Re-arming a fired periodic handle moves its
        series to the fresh handle, as the calendar queue's in-place
        reuse does."""
        fresh = self.schedule_at(time, handle.callback, *handle.args)
        fresh.period = handle.period
        if handle.fired:
            handle.period = None
        return fresh

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending handle — the :class:`EventScheduler`
        spelling of ``handle.cancel()`` (no-op once fired or already
        cancelled)."""
        handle.cancel()

    # -- execution ---------------------------------------------------------------

    def step(self) -> bool:
        """Process the next pending event; False if the queue is empty."""
        while self._queue:
            handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            handle.fired = True
            self._now = handle.time
            handle.callback(*handle.args)
            if handle.period is not None and handle.fired:
                handle.fired = False
                handle.time += handle.period
                handle.seq = next(self._seq)
                heapq.heappush(self._queue, handle)
            self.events_processed += 1
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``end_time``; advance the clock to
        ``end_time``.  Returns the number of events processed."""
        processed = 0
        while self._queue and (max_events is None or processed < max_events):
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > end_time:
                break
            self.step()
            processed += 1
        if self._now < end_time:
            self._now = end_time
        return processed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events``)."""
        processed = 0
        while self.step():
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        return processed

    def close(self) -> None:
        """Same contract as :meth:`Engine.close`: drop the queue, each
        live handle marked cancelled and stripped of callback and
        args."""
        for handle in self._queue:
            if not handle.cancelled:
                handle.cancelled = True
                handle.callback = None
                handle.args = ()
        self._queue.clear()

    @property
    def pending(self) -> int:
        """Events still queued (excluding cancelled placeholders)."""
        return sum(1 for h in self._queue if not h.cancelled)

    def next_event_time(self) -> Optional[float]:
        """When the next live event fires, or None.

        O(1) amortized: peeks the heap head, lazily discarding
        cancelled entries (each cancelled event is popped once ever).
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if head.cancelled:
                heapq.heappop(queue)
                continue
            return head.time
        return None
