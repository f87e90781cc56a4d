"""Unit tests for the event engine, timers, and links."""

import gc
import random

import pytest

from repro.bgp.messages import KeepAliveMessage
from repro.sim.engine import Engine, SimulationError
from repro.sim.link import CsuLink, Link
from repro.sim.refengine import ReferenceEngine
from repro.sim.scenarios import simulate
from repro.sim.timers import IntervalTimer, MraiBatcher

#: Both schedulers, for the contract tests that must hold on either.
ENGINES = (Engine, ReferenceEngine)


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        fired = []
        engine.schedule(3.0, fired.append, "c")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(2.0, fired.append, "b")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = Engine()
        fired = []
        for tag in "abc":
            engine.schedule(1.0, fired.append, tag)
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_run_until_advances_clock(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run_until(10.0)
        assert engine.now == 10.0
        assert engine.events_processed == 1

    def test_run_until_leaves_future_events(self):
        engine = Engine()
        fired = []
        engine.schedule(5.0, fired.append, "early")
        engine.schedule(15.0, fired.append, "late")
        engine.run_until(10.0)
        assert fired == ["early"]
        assert engine.pending == 1
        engine.run_until(20.0)
        assert fired == ["early", "late"]

    def test_cancel(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_rejects_past_scheduling(self):
        engine = Engine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(1.0, chain, n + 1)

        engine.schedule(0.0, chain, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0

    def test_next_event_time_skips_cancelled(self):
        engine = Engine()
        h = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        h.cancel()
        assert engine.next_event_time() == 2.0

    def test_max_events_bound(self):
        engine = Engine()
        for i in range(10):
            engine.schedule(float(i), lambda: None)
        assert engine.run(max_events=4) == 4
        assert engine.pending == 6

    def test_step_skips_cancelled(self):
        engine = Engine()
        fired = []
        doomed = engine.schedule(1.0, fired.append, "dead")
        engine.schedule(2.0, fired.append, "b")
        doomed.cancel()
        assert engine.step()
        assert fired == ["b"]
        assert engine.now == 2.0

    def test_run_until_max_events_skips_cancelled(self):
        # Cancelled entries at the head of the queue must not count
        # against max_events (they were never events, just husks).
        engine = Engine()
        fired = []
        doomed = [engine.schedule(1.0, fired.append, "dead") for _ in range(5)]
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(2.0, fired.append, "b")
        for handle in doomed:
            handle.cancel()
        assert engine.run_until(10.0, max_events=2) == 2
        assert fired == ["a", "b"]

    def test_reschedule_reuses_fired_handle(self):
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        engine.run()
        assert handle.fired
        again = engine.reschedule(handle, 2.0)
        assert again is handle  # the zero-allocation re-arm path
        assert not handle.fired
        assert handle.time == 2.0
        engine.run()
        assert fired == ["x", "x"]
        assert engine.now == 2.0

    def test_reschedule_pending_handle_left_untouched(self):
        # Re-arming a still-pending handle must not move it: the caller
        # gets a fresh handle and both events fire.
        engine = Engine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        other = engine.reschedule(handle, 3.0)
        assert other is not handle
        assert handle.time == 1.0
        engine.run()
        assert fired == ["x", "x"]

    def test_reschedule_rejects_past(self):
        engine = Engine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.reschedule(handle, 0.5)

    def test_compaction_preserves_order_after_mass_cancel(self):
        # Cancel enough to trigger the dead-sweep (dead > 4x live) and
        # check the survivors still fire in exact (time, seq) order.
        engine = Engine()
        fired = []
        handles = [
            engine.schedule(float(i % 40), fired.append, i)
            for i in range(600)
        ]
        for i, handle in enumerate(handles):
            if i % 30 != 0:
                handle.cancel()
        survivors = [i for i in range(600) if i % 30 == 0]
        assert engine.pending == len(survivors)
        engine.run()
        assert fired == sorted(survivors, key=lambda i: (i % 40, i))

    def test_same_instant_scheduling_during_drain(self):
        # Zero-delay events appended mid-bucket drain in the same pass.
        engine = Engine()
        fired = []

        def spawn(n):
            fired.append(n)
            if n < 3:
                engine.schedule(0.0, spawn, n + 1)

        engine.schedule(5.0, spawn, 0)
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 5.0

    def test_next_event_time_reentrant_during_drain(self):
        engine = Engine()
        seen = []
        engine.schedule(1.0, lambda: seen.append(engine.next_event_time()))
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: seen.append(engine.next_event_time()))
        engine.schedule(4.0, lambda: None)
        engine.run()
        # First probe sees its same-instant sibling; second sees 4.0.
        assert seen == [1.0, 4.0]


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestPeriodicHandles:
    """A handle with ``period`` set re-queues itself after each firing
    unless its callback re-armed or cancelled it."""

    def test_fires_every_period(self, engine_cls):
        engine = engine_cls()
        times = []
        handle = engine.schedule(1.0, lambda: times.append(engine.now))
        handle.period = 2.0
        engine.run_until(7.0)
        assert times == [1.0, 3.0, 5.0, 7.0]
        assert engine.pending == 1
        assert engine.next_event_time() == 9.0

    def test_cancel_from_own_callback_ends_the_series(self, engine_cls):
        engine = engine_cls()
        times = []

        def tick():
            times.append(engine.now)
            if len(times) == 2:
                handle.cancel()

        handle = engine.schedule(1.0, tick)
        handle.period = 1.0
        engine.run_until(10.0)
        assert times == [1.0, 2.0]
        assert engine.pending == 0

    def test_reschedule_from_own_callback_moves_the_series(self, engine_cls):
        engine = engine_cls()
        times = []
        box = []

        def tick():
            times.append(engine.now)
            if engine.now == 2.0:
                box[0] = engine.reschedule(box[0], 2.5)

        box.append(engine.schedule(1.0, tick))
        box[0].period = 1.0
        engine.run_until(5.0)
        assert times == [1.0, 2.0, 2.5, 3.5, 4.5]
        assert engine.pending == 1

    def test_callback_sets_the_next_period(self, engine_cls):
        engine = engine_cls()
        times = []

        def tick():
            times.append(engine.now)
            handle.period *= 2.0

        handle = engine.schedule(1.0, tick)
        handle.period = 1.0
        engine.run_until(20.0)
        assert times == [1.0, 3.0, 7.0, 15.0]

    def test_requeue_survives_the_event_limit(self, engine_cls):
        engine = engine_cls()
        handle = engine.schedule(1.0, lambda: None)
        handle.period = 1.0
        assert engine.run(max_events=3) == 3
        assert engine.now == 3.0
        assert engine.next_event_time() == 4.0


@pytest.mark.parametrize("engine_cls", ENGINES)
class TestClose:
    def test_close_drops_the_queue(self, engine_cls):
        engine = engine_cls()
        fired = []
        held = engine.schedule(5.0, fired.append, "held")
        periodic = engine.schedule(1.0, fired.append, "tick")
        periodic.period = 1.0
        engine.schedule(2.0, fired.append, "dead").cancel()
        engine.run_until(1.5)
        engine.close()
        assert engine.pending == 0
        assert engine.next_event_time() is None
        for handle in (held, periodic):
            assert handle.cancelled
            assert handle.callback is None and handle.args == ()
        held.cancel()  # does nothing: the handle is gone with its queue
        assert engine.pending == 0
        assert engine.run() == 0
        assert fired == ["tick"]

    def test_close_after_a_limit_mid_instant(self, engine_cls):
        engine = engine_cls()
        fired = []
        for tag in range(4):
            engine.schedule(1.0, fired.append, tag)
        engine.run(max_events=2)
        engine.close()
        assert fired == [0, 1]
        assert engine.pending == 0
        assert engine.next_event_time() is None
        assert engine.run() == 0

    def test_engine_still_schedules_after_close(self, engine_cls):
        engine = engine_cls()
        engine.schedule(1.0, lambda: None)
        engine.close()
        fired = []
        engine.schedule(2.0, fired.append, "after")
        assert engine.run() == 1 and fired == ["after"]


def test_calendar_close_refuses_a_running_drain():
    engine = Engine()
    engine.schedule(1.0, engine.close)
    with pytest.raises(SimulationError):
        engine.run()


@pytest.mark.parametrize("engine", ("calendar", "reference"))
def test_a_finished_timer_population_leaves_no_cyclic_garbage(engine):
    """``sync_population`` closes its engine, and its objects hold no
    cycle of their own: reference counting frees the whole world."""
    gc.collect()
    gc.disable()
    try:
        simulate("sync_population", engine=engine, smoke=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestIntervalTimer:
    def test_unjittered_fires_on_exact_multiples(self):
        engine = Engine()
        times = []
        timer = IntervalTimer(engine, 30.0, lambda: times.append(engine.now))
        timer.start()
        engine.run_until(150.0)
        assert times == [30.0, 60.0, 90.0, 120.0, 150.0]

    def test_unjittered_phase_locked_regardless_of_start(self):
        engine = Engine()
        times = []
        engine.schedule(7.0, lambda: None)
        engine.run()  # now = 7.0
        timer = IntervalTimer(engine, 30.0, lambda: times.append(engine.now))
        timer.start()
        engine.run_until(100.0)
        # Still fires at multiples of 30, not 7 + k*30.
        assert times == [30.0, 60.0, 90.0]

    def test_two_unjittered_timers_share_instants(self):
        engine = Engine()
        a_times, b_times = [], []
        IntervalTimer(engine, 30.0, lambda: a_times.append(engine.now)).start()
        IntervalTimer(engine, 30.0, lambda: b_times.append(engine.now)).start()
        engine.run_until(300.0)
        assert a_times == b_times  # the synchronization hazard

    def test_jittered_periods_vary_and_are_bounded(self):
        engine = Engine()
        times = []
        timer = IntervalTimer(
            engine,
            30.0,
            lambda: times.append(engine.now),
            jitter=0.25,
            rng=random.Random(42),
        )
        timer.start()
        engine.run_until(600.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(22.5 - 1e-9 <= g <= 30.0 + 1e-9 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1

    def test_jittered_instants_are_the_uniform_draws_bit_for_bit(self):
        """The inlined re-arm is ``Random.uniform`` operand for
        operand: 1 000 periods land on the instants a plain loop over
        ``rng.uniform`` computes, on both the first arm and the
        re-arms, including a stop/start in the middle."""
        engine = Engine()
        times = []
        timer = IntervalTimer(
            engine,
            30.0,
            lambda: times.append(engine.now),
            jitter=0.25,
            rng=random.Random(5),
        )
        timer.start()
        engine.run(max_events=400)
        timer.stop()
        timer.start()
        engine.run(max_events=600)
        oracle = random.Random(5)
        expected, now = [], 0.0
        for _ in range(1000):
            if len(expected) == 400:
                oracle.uniform(22.5, 30.0)  # the draw the stop discarded
            now += oracle.uniform(30.0 * (1.0 - 0.25), 30.0)
            expected.append(now)
        assert times == expected
        assert timer.fire_count == 1000

    def test_only_a_jittered_timer_constructs_a_generator(self, monkeypatch):
        seeds = []
        real = random.Random

        class Spy(real):
            def __init__(self, *args):
                seeds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Spy)
        engine = Engine()
        plain = IntervalTimer(engine, 30.0, lambda: None)
        batcher = MraiBatcher(engine, lambda batch: None)
        assert seeds == []
        assert plain.rng is None and batcher.timer.rng is None
        plain.start()
        batcher.start()
        engine.run_until(300.0)
        assert plain.fire_count == 10 and seeds == []
        jittered = IntervalTimer(engine, 30.0, lambda: None, jitter=0.25)
        assert seeds == [(0,)]
        own = real(9)
        assert IntervalTimer(
            engine, 30.0, lambda: None, jitter=0.25, rng=own
        ).rng is own
        assert seeds == [(0,)]
        assert isinstance(jittered.rng, real)

    def test_jittered_timer_given_no_generator_draws_random_zero(self):
        engine = Engine()
        times = []
        IntervalTimer(
            engine, 30.0, lambda: times.append(engine.now), jitter=0.25
        ).start()
        engine.run(max_events=50)
        oracle = random.Random(0)
        expected, now = [], 0.0
        for _ in range(50):
            now += oracle.uniform(22.5, 30.0)
            expected.append(now)
        assert times == expected

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_restart_from_own_callback_arms_once(self, engine_cls):
        engine = engine_cls()
        times = []

        def tick():
            times.append(engine.now)
            if engine.now == 60.0:
                timer.stop()
                timer.start()

        timer = IntervalTimer(engine, 30.0, tick)
        timer.start()
        engine.run_until(150.0)
        assert times == [30.0, 60.0, 90.0, 120.0, 150.0]
        assert engine.pending == 1

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_jittered_restart_from_own_callback_arms_once(self, engine_cls):
        engine = engine_cls()
        times = []

        def tick():
            times.append(engine.now)
            if len(times) == 3:
                timer.stop()
                timer.start()

        timer = IntervalTimer(
            engine, 30.0, tick, jitter=0.25, rng=random.Random(3)
        )
        timer.start()
        engine.run_until(600.0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(22.5 - 1e-9 <= g <= 30.0 + 1e-9 for g in gaps)
        assert engine.pending == 1

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_stop_from_own_callback(self, engine_cls):
        engine = engine_cls()
        times = []

        def tick():
            times.append(engine.now)
            timer.stop()

        timer = IntervalTimer(engine, 30.0, tick)
        timer.start()
        engine.run_until(300.0)
        assert times == [30.0]
        assert engine.pending == 0

    def test_stop_prevents_firing(self):
        engine = Engine()
        times = []
        timer = IntervalTimer(engine, 10.0, lambda: times.append(engine.now))
        timer.start()
        engine.run_until(15.0)
        timer.stop()
        engine.run_until(100.0)
        assert times == [10.0]

    def test_validation(self):
        engine = Engine()
        with pytest.raises(ValueError):
            IntervalTimer(engine, 0.0, lambda: None)
        with pytest.raises(ValueError):
            IntervalTimer(engine, 10.0, lambda: None, jitter=1.0)

    def test_phase_offset(self):
        engine = Engine()
        times = []
        timer = IntervalTimer(
            engine, 30.0, lambda: times.append(engine.now), phase=5.0
        )
        timer.start()
        engine.run_until(100.0)
        # Fires at phase + k*interval instants that are in the future.
        assert times == [5.0, 35.0, 65.0, 95.0]


class TestMraiBatcher:
    def test_batches_until_flush(self):
        engine = Engine()
        flushes = []
        batcher = MraiBatcher(engine, flushes.append, interval=30.0)
        batcher.start()
        batcher.mark_dirty("p1")
        batcher.mark_dirty("p2")
        batcher.mark_dirty("p1")  # dedup
        assert batcher.pending == 2
        engine.run_until(30.0)
        assert flushes == [{"p1", "p2"}]
        assert batcher.pending == 0

    def test_no_flush_when_clean(self):
        engine = Engine()
        flushes = []
        batcher = MraiBatcher(engine, flushes.append, interval=30.0)
        batcher.start()
        engine.run_until(120.0)
        assert flushes == []
        assert batcher.flush_count == 0

    def test_marks_between_flushes_carry_to_next(self):
        engine = Engine()
        flushes = []
        batcher = MraiBatcher(engine, flushes.append, interval=30.0)
        batcher.start()
        batcher.mark_dirty("a")
        engine.run_until(30.0)

        def mark_later():
            batcher.mark_dirty("b")

        engine.schedule(5.0, mark_later)
        engine.run_until(60.0)
        assert flushes == [{"a"}, {"b"}]


class TestLink:
    def _endpoint(self, log, ident):
        return {
            "deliver": lambda sender, msg: log.append((ident, sender, msg)),
        }

    def test_delivery_with_delay(self):
        engine = Engine()
        log = []
        link = Link(engine, delay=0.5)
        link.attach(1, lambda s, m: log.append(("to1", s, m)))
        link.attach(2, lambda s, m: log.append(("to2", s, m)))
        link.send(1, "hello")
        engine.run()
        assert log == [("to2", 1, "hello")]
        assert engine.now == 0.5
        assert link.messages_delivered == 1

    def test_send_on_down_link_lost(self):
        engine = Engine()
        link = Link(engine)
        link.attach(1, lambda s, m: None)
        link.attach(2, lambda s, m: None)
        link.go_down()
        assert not link.send(1, "x")
        assert link.messages_lost == 1

    def test_in_flight_lost_on_down(self):
        engine = Engine()
        log = []
        link = Link(engine, delay=1.0)
        link.attach(1, lambda s, m: log.append(m))
        link.attach(2, lambda s, m: log.append(m))
        link.send(1, "doomed")
        engine.schedule(0.5, link.go_down)
        engine.run()
        assert log == []
        assert link.messages_lost == 1

    def test_up_down_callbacks(self):
        engine = Engine()
        events = []
        link = Link(engine)
        link.attach(1, lambda s, m: None, on_up=lambda: events.append("up1"),
                    on_down=lambda: events.append("down1"))
        link.attach(2, lambda s, m: None, on_down=lambda: events.append("down2"))
        link.go_down()
        link.go_down()  # idempotent
        link.go_up()
        assert events == ["down1", "down2", "up1"]
        assert link.down_count == 1

    def test_down_does_not_recount_delivered(self):
        # Regression: a delivered message must not be booked as lost
        # by a later go_down().
        engine = Engine()
        log = []
        link = Link(engine, delay=0.5)
        link.attach(1, lambda s, m: log.append(m))
        link.attach(2, lambda s, m: log.append(m))
        link.send(1, "m1")
        engine.run()
        assert log == ["m1"]
        link.go_down()
        assert link.messages_lost == 0
        assert link.messages_delivered == 1

    def test_down_counts_only_pending_in_flight(self):
        engine = Engine()
        log = []
        link = Link(engine, delay=1.0)
        link.attach(1, lambda s, m: log.append(m))
        link.attach(2, lambda s, m: log.append(m))
        link.send(1, "delivered")
        engine.run()
        link.send(2, "doomed-a")
        link.send(1, "doomed-b")
        link.go_down()
        assert link.messages_lost == 2
        assert link.messages_delivered == 1
        engine.run()
        assert log == ["delivered"]

    def test_third_endpoint_rejected(self):
        engine = Engine()
        link = Link(engine)
        link.attach(1, lambda s, m: None)
        link.attach(2, lambda s, m: None)
        with pytest.raises(ValueError):
            link.attach(3, lambda s, m: None)

    def test_stranger_cannot_send(self):
        # Regression: the receiver used to be "the first endpoint whose
        # id differs", so a stranger's message reached endpoint 1.
        engine = Engine()
        log = []
        link = Link(engine)
        link.attach(1, lambda s, m: log.append(("to1", s, m)))
        link.attach(2, lambda s, m: log.append(("to2", s, m)))
        with pytest.raises(ValueError, match="endpoint 99 not attached"):
            link.send(99, "x")
        engine.run()
        assert log == []
        assert engine.events_processed == 0
        assert len(link._in_flight) == 0
        assert (link.messages_delivered, link.messages_lost) == (0, 0)

    def test_half_attached_link_cannot_send(self):
        engine = Engine()
        link = Link(engine)
        with pytest.raises(ValueError, match="endpoint 1 not attached"):
            link.send(1, "x")
        link.attach(1, lambda s, m: None)
        with pytest.raises(ValueError, match="endpoint 1 not attached"):
            link.send(1, "x")
        with pytest.raises(ValueError, match="endpoint 2 not attached"):
            link.send(2, "x")
        assert engine.pending == 0

    def test_duplicate_endpoint_rejected(self):
        # Regression: a second attach of the same id was accepted and
        # made every later send from it raise.
        engine = Engine()
        log = []
        link = Link(engine)
        link.attach(1, lambda s, m: log.append(("to1", m)))
        with pytest.raises(ValueError, match="endpoint 1 already attached"):
            link.attach(1, lambda s, m: log.append(("dup", m)))
        link.attach(2, lambda s, m: log.append(("to2", m)))
        link.send(1, "a")
        link.send(2, "b")
        engine.run()
        assert log == [("to2", "a"), ("to1", "b")]

    @pytest.mark.parametrize("wire", [False, True])
    @pytest.mark.parametrize("delay", [0.0, 0.01, 1.0])
    def test_in_flight_holds_exactly_the_undelivered(self, delay, wire):
        """Any mix of sends, deliveries and flaps, against a model that
        keeps each undelivered message's due time."""
        rng = random.Random(int(delay * 100) * 2 + wire)
        engine = Engine()
        received = []
        link = Link(engine, delay=delay, wire=wire)
        link.attach(1, lambda s, m: received.append(m))
        link.attach(2, lambda s, m: received.append(m))
        due, delivered, lost = [], 0, 0
        for _ in range(2000):
            op = rng.random()
            if op < 0.55:
                sent = link.send(rng.choice((1, 2)), KeepAliveMessage())
                assert sent is link.is_up
                if sent:
                    due.append(engine.now + delay)
                else:
                    lost += 1
            elif op < 0.85:
                engine.run_until(engine.now + rng.choice((0.0, 0.004, 0.3, 2.0)))
                delivered += sum(t <= engine.now for t in due)
                due = [t for t in due if t > engine.now]
            elif op < 0.93:
                if link.is_up:
                    lost += len(due)
                    due = []
                link.go_down()
            else:
                link.go_up()
            assert len(link._in_flight) == len(due)
            assert not any(h.fired or h.cancelled for h in link._in_flight)
            assert (link.messages_delivered, link.messages_lost) == (
                delivered, lost,
            )
        assert len(received) == delivered > 100
        assert lost > 100

    def test_down_from_inside_a_delivery(self):
        engine = Engine()
        log = []
        link = Link(engine, delay=0.5)

        def trip(sender, message):
            log.append(message)
            if message == "trip":
                link.go_down()
                assert len(link._in_flight) == 0

        link.attach(1, lambda s, m: log.append(m))
        link.attach(2, trip)
        for message in ("ok", "trip", "doomed-a", "doomed-b"):
            link.send(1, message)
        link.send(2, "doomed-c")
        assert len(link._in_flight) == 5
        engine.run()
        assert log == ["ok", "trip"]
        assert (link.messages_delivered, link.messages_lost) == (2, 3)
        link.go_up()
        link.send(1, "after")
        assert len(link._in_flight) == 1
        engine.run()
        assert log == ["ok", "trip", "after"]
        assert len(link._in_flight) == 0

    def test_shortened_delay_delivers_out_of_send_order(self):
        """``delay`` is a plain attribute: if it shrinks with messages
        in flight, a later send overtakes them and must still remove
        its own handle, not the head."""
        engine = Engine()
        log = []
        link = Link(engine, delay=1.0)
        link.attach(1, lambda s, m: log.append(m))
        link.attach(2, lambda s, m: log.append(m))
        link.send(1, "slow")
        link.delay = 0.1
        link.send(1, "fast")
        engine.run_until(0.5)
        assert log == ["fast"]
        (pending,) = link._in_flight
        assert pending.time == 1.0 and not pending.fired
        link.go_down()
        assert (link.messages_delivered, link.messages_lost) == (1, 1)
        engine.run()
        assert log == ["fast"]


class TestCsuLink:
    def test_oscillates_with_dominant_period(self):
        engine = Engine()
        downs = []
        link = CsuLink(
            engine,
            up_duration=55.0,
            down_duration=5.0,
            noise=0.0,
            rng=random.Random(0),
        )
        link.attach(1, lambda s, m: None,
                    on_down=lambda: downs.append(engine.now))
        link.attach(2, lambda s, m: None)
        engine.run_until(600.0)
        assert len(downs) == 10
        gaps = [b - a for a, b in zip(downs, downs[1:])]
        assert all(abs(g - 60.0) < 1e-9 for g in gaps)

    def test_noise_keeps_period_near_nominal(self):
        engine = Engine()
        downs = []
        link = CsuLink(engine, noise=0.02, rng=random.Random(7))
        link.attach(1, lambda s, m: None,
                    on_down=lambda: downs.append(engine.now))
        link.attach(2, lambda s, m: None)
        engine.run_until(1200.0)
        gaps = [b - a for a, b in zip(downs, downs[1:])]
        assert all(abs(g - 60.0) / 60.0 < 0.06 for g in gaps)

    def test_rejects_bad_durations(self):
        with pytest.raises(ValueError):
            CsuLink(Engine(), up_duration=0.0)
