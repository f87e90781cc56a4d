"""Discrete-event simulation engine.

A minimal, deterministic event scheduler: callbacks are ordered by
(time, sequence number), so two events at the same instant fire in
scheduling order and runs are exactly reproducible.  All the mechanism
models (routers, links, timers, fault injectors) hang off one
:class:`Engine`.

Scheduler design
----------------
The queue is a *calendar of exact-timestamp buckets*: a dict mapping
each distinct firing time to a FIFO list of handles, plus a binary heap
of the distinct times themselves.  Each bucket is appended in schedule
order, so within-bucket list order *is* scheduling order (the order the
reference heap encodes as ``seq``) — draining the earliest bucket
front-to-back reproduces the reference heap's ``(time, seq)`` order
exactly (property-tested against
:class:`repro.sim.refengine.ReferenceEngine`).  Ordering is therefore
positional; ``seq`` on a handle records its allocation order and is
not reassigned on the :meth:`Engine.reschedule` reuse fast path.

Why this shape fits the paper's workloads:

- **Phase-locked timer populations** (§4.2): N unjittered routers
  share firing instants, so N events collapse into one bucket — one
  heap operation and one list scan per instant instead of N
  ``heappush``/``heappop`` pairs comparing handles in Python.
- **O(1) amortized insert** for the dominant near-future periodic
  events: an existing bucket is a dict hit plus a list append; only
  the first event at a new instant pays a float ``heappush`` (C-level
  comparisons, vs. the old ``EventHandle.__lt__`` in Python).
- **Lazy-cancellation compaction**: MRAI re-arms, hold-timer resets,
  and link flaps leave large dead fractions in the queue.  Cancelled
  handles are discarded during the drain for the cost of an attribute
  check (no heap operation — the reference heap pays a full
  log-compare pop per dead entry), and the engine tracks live/dead
  counts, sweeping dead entries out of future buckets only when the
  dead outnumber the living 4:1 (so ``pending`` is O(1) and memory
  stays bounded even when cancelled events sit far in the future).
- **Handle reuse**: a handle whose ``period`` is set re-queues itself
  at ``time + period`` inside the drain loop, right after its callback
  returns (unless the callback re-armed or cancelled it), so the
  :class:`repro.sim.timers.IntervalTimer` period costs no call beyond
  the callback's own; and a fired handle can be re-armed in place
  (:meth:`Engine.reschedule`, the :class:`repro.sim.sync.PeriodicRouter`
  path).  Neither allocates per period.
- **A finished run frees itself** (:meth:`Engine.close`): an object
  that holds its own handle (a timer, a hold-timer actor) and the
  handle's callback bound to that object form a reference cycle
  through the queue; dropping the queue and each live handle's
  callback lets reference counting free the whole world, with no
  work left for the cyclic collector.

Adaptive heap fallback
----------------------
The calendar shape loses when distinct-time cardinality explodes: a
flap storm schedules thousands of events at *irregular* continuous
times, so nearly every insert allocates a fresh single-handle bucket
(dict miss + list allocation + float heappush) and every drained
instant pays a dict lookup, an inner-loop setup, and a bucket
retirement (dict delete + heappop) for one event.  Before the
fallback, one box showed flap_storm at 0.82x against the plain
reference heap (history: CHANGES.md PR 7).

The engine therefore runs in one of two modes and migrates between
them at safe points, preserving (time, seq) order bit-exactly:

- **Calendar mode** (the default) counts retired buckets per
  ``_ADAPT_WINDOW`` drained events — the detection lives on the
  *drain* side, after bucket retirement, so the insert fast path pays
  nothing.  When the singleton fraction (buckets / events) rises above
  ``_TRIP_MARKS / _ADAPT_WINDOW`` (the storm signature — measured
  ~0.69 on flap_storm vs ~0.06 on sync_population), the queue migrates
  to a plain binary heap of ``(time, seq, handle)`` tuples.  Fresh
  ``seq`` values are assigned bucket-by-bucket in (time, position)
  order during the migration, so the walk emits an already-sorted
  list — a valid heap with no ``heapify`` — and positional calendar
  order becomes numerical heap order.
- **Heap mode** pays one C-level tuple ``heappush``/``heappop`` per
  event (no Python ``__lt__`` — the reference engine's cost) and no
  bucket bookkeeping.  It counts, per ``_ADAPT_WINDOW`` drained
  events, how many fired at the same instant as their predecessor;
  when that fraction rises above the same ``_TRIP_MARKS /
  _ADAPT_WINDOW`` (phase-locked populations re-emerging), the heap is
  grouped back into calendar buckets.

Both trip conditions key off the shared-instant fraction from opposite
directions (calendar exits when sharing <= 0.4, heap exits when
sharing >= 0.6), so no workload satisfies both: the 0.4-0.6 band is
the hysteresis gap.  Migrations only run at safe points — right after
a bucket retirement or between heap pops, never inside a bucket
iteration — and only in the *outermost* drain (a nested ``run_until``
from a callback must not pull the structures out from under the outer
loop's locals).  Counters reset on every switch, so flipping requires
a full window of fresh evidence.
"""

from __future__ import annotations

import itertools
import sys
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Engine", "EventHandle", "SimulationError"]

#: Compaction trigger: sweep when at least this many dead handles have
#: accumulated *and* they outnumber the live ones 4:1.  Dead entries
#: that the clock will soon reach are cheapest to discard during the
#: drain itself (an attribute check — no heap operation), so compaction
#: only exists to bound memory when cancelled events sit far in the
#: future; the high ratio keeps steady-state cancel churn (hold-timer
#: resets, MRAI re-arms) from ever paying for sweeps.
_COMPACT_MIN_DEAD = 64

#: Mode-adaptation window: trip decisions are made once per this many
#: drained events.  Large enough that migrations are rare and the
#: calendar-mode counters amortize to a fraction of an integer op per
#: event (they tick per retired *bucket*); small enough to catch a
#: storm phase within a few thousand events.
_ADAPT_WINDOW = 512

#: Trip point, used from both directions: calendar mode migrates to
#: the heap when at least this many of the window's events came from
#: singleton-ish buckets (buckets retired >= 0.6 * events drained —
#: flap_storm measures ~0.69, sync_population ~0.06); heap mode
#: migrates back when at least this many events fired at the same
#: instant as their predecessor (shared fraction >= 0.6).  A workload
#: cannot satisfy both, so the 0.4-0.6 sharing band is hysteresis.
_TRIP_MARKS = 307

#: The event limit of an unbounded drain: an int, so the per-event
#: ``fired < limit`` test compares two ints.
_UNBOUNDED = sys.maxsize


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. events in the past)."""


class EventHandle:
    """A scheduled event; supports cancellation and (engine-mediated)
    re-arming via :meth:`Engine.reschedule`.

    ``period`` (None unless the scheduler's caller sets it) makes the
    event periodic: after each firing the engine re-queues the handle
    at ``time + period``, unless its callback re-armed it
    (:meth:`Engine.reschedule`) or cancelled it.  The callback may
    change ``period`` for the next re-queue.
    """

    __slots__ = (
        "time", "callback", "args", "cancelled", "fired", "seq", "engine",
        "period",
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable,
        args: tuple,
        engine: Optional["Engine"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self.engine = engine
        self.period: Optional[float] = None

    def cancel(self) -> None:
        """Prevent the event from firing (O(1); the queue entry is
        skipped when drained, and compacted away if dead entries pile
        up).  A periodic handle cancelled from its own callback is not
        queued at that moment: cancelling ends its period instead."""
        if self.cancelled:
            return
        if self.fired:
            self.period = None
            return
        self.cancelled = True
        engine = self.engine
        if engine is not None:
            # Inlined Engine._note_cancel (hold-timer resets make this
            # a hot path).
            engine._live -= 1
            dead = engine._dead + 1
            engine._dead = dead
            if dead >= _COMPACT_MIN_DEAD and dead > (engine._live << 2):
                engine._compact()

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


#: Allocation fast path for the engine's schedule methods: slot stores
#: on a bare instance, skipping the ``__init__`` call frame.
_new_handle = EventHandle.__new__

#: Heap-mode queue entries.  The handle rides in slot 2 and never
#: participates in comparisons (seq is unique).
_HeapEntry = Tuple[float, int, EventHandle]


class Engine:
    """The event queue and simulation clock.

    Examples
    --------
    >>> engine = Engine()
    >>> fired = []
    >>> _ = engine.schedule(5.0, fired.append, "hello")
    >>> engine.run_until(10.0)
    >>> fired
    ['hello']
    >>> engine.now
    10.0
    """

    __slots__ = (
        "_now",
        "_seq",
        "_times",
        "_buckets",
        "_head_pos",
        "_heap",
        "_heap_mode",
        "_win_events",
        "_win_marks",
        "_live",
        "_dead",
        "_in_drain",
        "events_processed",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._seq = itertools.count()
        #: Binary heap of *distinct* firing times (bare floats: C-level
        #: comparisons).  May hold stale entries for retired buckets.
        self._times: List[float] = []
        #: time -> FIFO bucket; append order == seq order.
        self._buckets: Dict[float, List[EventHandle]] = {}
        #: Drain cursor into the earliest bucket (events scheduled *at*
        #: the current instant append behind it and still fire in order).
        self._head_pos = 0
        #: Heap-fallback queue of (time, seq, handle); populated only
        #: in heap mode — exactly one of _heap / _buckets is non-empty.
        self._heap: List[_HeapEntry] = []
        self._heap_mode = False
        #: Adaptation counters for the current _ADAPT_WINDOW of drained
        #: events (calendar: marks = buckets retired; heap: marks =
        #: same-instant pops); reset on every mode switch.
        self._win_events = 0
        self._win_marks = 0
        self._live = 0
        self._dead = 0
        self._in_drain = False
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
        time = self._now + delay
        handle = _new_handle(EventHandle)
        handle.time = time
        seq = handle.seq = next(self._seq)
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle.fired = False
        handle.engine = self
        handle.period = None
        if self._heap_mode:
            heappush(self._heap, (time, seq, handle))
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [handle]
                heappush(self._times, time)
            else:
                bucket.append(handle)
        self._live += 1
        return handle

    def schedule_at(
        self, time: float, callback: Callable, *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})"
            )
        handle = _new_handle(EventHandle)
        handle.time = time
        seq = handle.seq = next(self._seq)
        handle.callback = callback
        handle.args = args
        handle.cancelled = False
        handle.fired = False
        handle.engine = self
        handle.period = None
        if self._heap_mode:
            heappush(self._heap, (time, seq, handle))
        else:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [handle]
                heappush(self._times, time)
            else:
                bucket.append(handle)
        self._live += 1
        return handle

    def reschedule(self, handle: EventHandle, time: float) -> EventHandle:
        """Re-arm ``handle`` at ``time``, reusing the object when it has
        already fired (the periodic-timer fast path — no allocation).
        A periodic handle keeps its ``period``, so re-arming it from its
        own callback moves the whole series.

        Falls back to a fresh :meth:`schedule_at` of the same callback,
        args and period when the handle is still pending or was
        cancelled — the pending event is left untouched, so callers may
        hold one handle per logical timer and re-arm unconditionally.
        Returns the handle actually queued.
        """
        # A fired handle can never also be cancelled (cancel() no-ops
        # once fired), so two checks suffice.
        if handle.fired and handle.engine is self:
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule at {time} before now ({self._now})"
                )
            handle.fired = False
            handle.time = time
            if self._heap_mode:
                # Heap order is numerical, so the reused handle needs a
                # fresh seq (matching the reference engine's reuse
                # semantics: re-arming is a new insertion).
                seq = handle.seq = next(self._seq)
                heappush(self._heap, (time, seq, handle))
            else:
                # No new seq: ordering is positional (bucket append
                # order), so a reused handle keeps its allocation seq.
                bucket = self._buckets.get(time)
                if bucket is None:
                    self._buckets[time] = [handle]
                    heappush(self._times, time)
                else:
                    bucket.append(handle)
            self._live += 1
            return handle
        fresh = self.schedule_at(time, handle.callback, *handle.args)
        fresh.period = handle.period
        return fresh

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a pending handle — the :class:`EventScheduler`
        spelling of ``handle.cancel()`` (no-op once fired or already
        cancelled)."""
        handle.cancel()

    # -- execution ---------------------------------------------------------------

    def step(self) -> bool:
        """Process the next pending event; False if the queue is empty."""
        return self._service_head(float("inf"), 1) > 0

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``end_time``; advance the clock to
        ``end_time``.  Returns the number of events processed."""
        limit = _UNBOUNDED if max_events is None else max_events
        processed = self._service_head(end_time, limit)
        if self._now < end_time:
            self._now = end_time
        return processed

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events``)."""
        limit = _UNBOUNDED if max_events is None else max_events
        return self._service_head(float("inf"), limit)

    def _service_head(self, end_time: float, limit: int) -> int:
        """Drain live events with ``time <= end_time``, at most ``limit``
        of them, in (time, seq) order.  The single home of the
        cancelled-skip logic (cancelled entries never count against
        ``limit``), shared by :meth:`step`, :meth:`run`, and
        :meth:`run_until` so the paths cannot drift.

        Dispatches to the mode-specific drain and re-enters it when a
        drain returned because the queue migrated mid-call.  Only the
        outermost drain executes migrations (nested ``run_until`` calls
        from callbacks would otherwise pull the structures out from
        under the outer loop's locals).
        """
        fired = 0
        was_draining = self._in_drain
        self._in_drain = True
        try:
            while True:
                heap_mode = self._heap_mode
                if heap_mode:
                    fired += self._drain_heap(
                        end_time, limit - fired, not was_draining
                    )
                else:
                    fired += self._drain_calendar(
                        end_time, limit - fired, not was_draining
                    )
                if self._heap_mode == heap_mode:
                    break
        finally:
            self._in_drain = was_draining
        self.events_processed += fired
        return fired

    def _drain_calendar(
        self, end_time: float, limit: int, outermost: bool
    ) -> int:
        """Calendar-mode drain loop.  Counts retired buckets per
        window of drained events and returns early (mode switched)
        when the singleton fraction trips the heap fallback.  A
        periodic handle still fired after its callback is appended to
        its next instant's bucket (a later instant, so never this
        one)."""
        times = self._times
        buckets = self._buckets
        fired = 0
        while times and fired < limit:
            time = times[0]
            if time > end_time:
                break
            bucket = buckets.get(time)
            if bucket is None:
                # Stale heap entry (bucket emptied by compaction or
                # retired by next_event_time).
                heappop(times)
                self._head_pos = 0
                continue
            i = self._head_pos
            try:
                # Callbacks may append same-instant events to this
                # very bucket; len() is re-read so they drain in
                # this pass.  The cursor is synced before each
                # callback (for reentrant ``next_event_time``) and
                # on every exit path via ``finally``; cancelled
                # skips between callbacks don't pay a store.
                while i < len(bucket) and fired < limit:
                    handle = bucket[i]
                    i += 1
                    if handle.cancelled:
                        self._dead -= 1
                        continue
                    handle.fired = True
                    self._live -= 1
                    self._now = time
                    self._head_pos = i
                    args = handle.args
                    if args:
                        handle.callback(*args)
                    else:
                        handle.callback()
                    fired += 1
                    period = handle.period
                    if period is not None and handle.fired:
                        handle.fired = False
                        after = handle.time = time + period
                        later = buckets.get(after)
                        if later is None:
                            buckets[after] = [handle]
                            heappush(times, after)
                        else:
                            later.append(handle)
                        self._live += 1
            finally:
                self._head_pos = i
            size = len(bucket)
            if i < size:
                break  # limit hit mid-bucket; cursor persists
            self._retire_head(time, bucket)
            # Adaptation bookkeeping, per retired bucket (not per
            # event): a window dominated by singleton buckets is the
            # storm signature.  len(bucket) counts cancelled skips as
            # drained work, which is what the calendar is cheap at, so
            # the proxy errs conservative.
            self._win_marks += 1
            events = self._win_events = self._win_events + size
            if events >= _ADAPT_WINDOW:
                marks = self._win_marks
                self._win_events = 0
                self._win_marks = 0
                if marks * _ADAPT_WINDOW >= _TRIP_MARKS * events and outermost:
                    # Safe point: the bucket was fully retired, nothing
                    # is iterating.  _to_heap empties our locals in
                    # place; return and let _service_head re-enter.
                    self._to_heap()
                    return fired
        return fired

    def _drain_heap(
        self, end_time: float, limit: int, outermost: bool
    ) -> int:
        """Heap-mode drain loop: one C-level tuple heappop per event.
        Counts same-instant pops per window and migrates back to
        calendar mode (returning early) when phase-locked populations
        re-emerge.  A periodic handle still fired after its callback
        is pushed back with a fresh ``seq``, as :meth:`reschedule`
        does."""
        heap = self._heap
        fired = 0
        while heap and fired < limit:
            entry = heap[0]
            handle = entry[2]
            if handle.cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            time = entry[0]
            if time > end_time:
                break
            heappop(heap)
            handle.fired = True
            self._live -= 1
            if time == self._now:
                self._win_marks += 1
            events = self._win_events = self._win_events + 1
            self._now = time
            args = handle.args
            if args:
                handle.callback(*args)
            else:
                handle.callback()
            fired += 1
            period = handle.period
            if period is not None and handle.fired:
                handle.fired = False
                after = handle.time = time + period
                seq = handle.seq = next(self._seq)
                heappush(heap, (after, seq, handle))
                self._live += 1
            if events >= _ADAPT_WINDOW:
                marks = self._win_marks
                self._win_events = 0
                self._win_marks = 0
                if marks >= _TRIP_MARKS and outermost:
                    # Safe point: between pops, nothing iterating.
                    self._to_calendar()
                    return fired
        return fired

    def _retire_head(self, time: float, bucket: List[EventHandle]) -> None:
        """Drop a fully drained head bucket and its heap entry."""
        if self._buckets.get(time) is bucket:
            del self._buckets[time]
            if self._times and self._times[0] == time:
                heappop(self._times)
        self._head_pos = 0

    # -- mode migration -------------------------------------------------------

    def _to_heap(self) -> None:
        """Migrate calendar buckets into the fallback heap.

        Walking buckets in ascending time order, and each bucket
        front-to-back (from the drain cursor, for a partially drained
        head), visits live handles in exactly their (time, positional)
        firing order.  Assigning fresh seqs along the walk makes that
        order numerical — the emitted list is already sorted, hence a
        valid binary heap with no ``heapify`` — while keeping the
        monotone seq counter shared with future inserts.
        """
        buckets = self._buckets
        times = self._times
        seq_counter = self._seq
        head_pos = self._head_pos
        head_time = times[0] if (head_pos and times) else None
        heap = self._heap
        dead = 0
        for time in sorted(buckets):
            bucket = buckets[time]
            if time == head_time:
                bucket = bucket[head_pos:]
            for handle in bucket:
                if handle.cancelled:
                    dead += 1
                    continue
                seq = handle.seq = next(seq_counter)
                heap.append((time, seq, handle))
        buckets.clear()
        times.clear()
        self._head_pos = 0
        self._dead -= dead
        self._heap_mode = True
        self._win_events = 0
        self._win_marks = 0

    def _to_calendar(self) -> None:
        """Group the fallback heap back into calendar buckets.

        Sorting the (time, seq, handle) entries yields handles in
        firing order; grouping consecutive equal times rebuilds FIFO
        buckets whose positional order matches seq order, and appending
        the distinct times in ascending order leaves ``_times`` sorted
        — a valid binary heap as-is.
        """
        heap = self._heap
        buckets = self._buckets
        times = self._times
        dead = 0
        last_time = None
        bucket: List[EventHandle] = []
        for entry in sorted(heap):
            handle = entry[2]
            if handle.cancelled:
                dead += 1
                continue
            time = entry[0]
            if time != last_time:
                bucket = buckets[time] = [handle]
                times.append(time)
                last_time = time
            else:
                bucket.append(handle)
        heap.clear()
        self._head_pos = 0
        self._dead -= dead
        self._heap_mode = False
        self._win_events = 0
        self._win_marks = 0

    # -- cancellation bookkeeping ---------------------------------------------

    def _compact(self) -> None:
        """Sweep cancelled handles out of the queue.  Calendar mode
        skips the head bucket (the drain cursor may point into it) and
        deletes emptied buckets, leaving their heap entries to be
        discarded lazily by the drain; heap mode filters and
        re-heapifies in place (safe mid-drain — the drain loop aliases
        the same list object)."""
        if self._heap_mode:
            heap = self._heap
            live_entries = [e for e in heap if not e[2].cancelled]
            self._dead -= len(heap) - len(live_entries)
            heap[:] = live_entries
            heapify(heap)
            return
        buckets = self._buckets
        head = buckets.get(self._times[0]) if self._times else None
        removed = 0
        for time in list(buckets):
            bucket = buckets[time]
            if bucket is head:
                continue  # the drain cursor may point into it
            live = [h for h in bucket if not h.cancelled]
            dropped = len(bucket) - len(live)
            if not dropped:
                continue
            removed += dropped
            if live:
                bucket[:] = live
            else:
                del buckets[time]
        self._dead -= removed

    # -- teardown -------------------------------------------------------------

    def close(self) -> None:
        """Drop every queued event.  Each live handle is marked
        cancelled (a held handle's ``cancel()`` then does nothing) and
        loses its callback and args, which breaks the cycles a finished
        run's objects form through the queue (object -> handle ->
        callback -> object), so reference counting frees them.  Not
        callable from a callback."""
        if self._in_drain:
            raise SimulationError("close() called during a drain")
        queued = [entry[2] for entry in self._heap]
        for bucket in self._buckets.values():
            queued.extend(bucket)
        for handle in queued:
            if not (handle.cancelled or handle.fired):
                handle.cancelled = True
                handle.callback = None
                handle.args = ()
        self._buckets.clear()
        self._times.clear()
        self._heap.clear()
        self._head_pos = 0
        self._live = 0
        self._dead = 0

    # -- introspection --------------------------------------------------------

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def next_event_time(self) -> Optional[float]:
        """When the next live event fires, or None.

        O(1) amortized: peeks the earliest bucket (or heap entry),
        lazily retiring dead entries.  During an active drain the
        structure is left untouched (read-only scan).
        """
        if self._heap_mode:
            heap = self._heap
            if self._in_drain:
                if heap and not heap[0][2].cancelled:
                    return heap[0][0]
                best = None
                for entry in heap:
                    if not entry[2].cancelled and (
                        best is None or entry[0] < best
                    ):
                        best = entry[0]
                return best
            while heap:
                entry = heap[0]
                if entry[2].cancelled:
                    heappop(heap)
                    self._dead -= 1
                    continue
                return entry[0]
            return None
        times = self._times
        buckets = self._buckets
        if self._in_drain:
            # A callback is asking mid-drain: scan without mutating the
            # structures the drain loop is iterating.
            for time in sorted(times):
                bucket = buckets.get(time)
                if bucket is None:
                    continue
                start = self._head_pos if time == times[0] else 0
                for handle in bucket[start:]:
                    if not handle.cancelled:
                        return time
            return None
        while times:
            time = times[0]
            bucket = buckets.get(time)
            if bucket is None:
                heappop(times)
                self._head_pos = 0
                continue
            for handle in bucket[self._head_pos:]:
                if not handle.cancelled:
                    return time
            self._dead -= len(bucket) - self._head_pos
            self._retire_head(time, bucket)
        return None
