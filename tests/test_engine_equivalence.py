"""Differential tests: calendar-queue Engine vs the reference heap.

The calendar queue (:class:`repro.sim.engine.Engine`) must be
observationally identical to the original binary-heap scheduler
(:class:`repro.sim.refengine.ReferenceEngine`) — same firing order,
same clock, same counts — under every mix of schedule / schedule_at /
cancel / reschedule / step / run_until / periodic handles / close the
mechanism models use.  The property tests drive both engines through
identical seeded workloads and compare full traces; the golden test pins a FlapStormScenario
digest so a behavioral regression in *either* engine is caught even if
they drift together.
"""

import itertools
import random

import pytest

from repro.sim.digests import rib_state_digest
from repro.sim.engine import Engine
from repro.sim.flapstorm import FlapStormScenario
from repro.sim.refengine import ReferenceEngine
from repro.verify.golden import FUZZ_SEEDS, TRACE_SEED

#: Delay palette: duplicates force shared buckets, 0.0 exercises
#: same-instant scheduling, the rest spread events across instants.
_DELAYS = (0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 3.5)


def _drive(engine_cls, seed):
    """Run one randomized mixed workload; return the observable trace.

    All decisions come from ``random.Random(seed)`` and the trace the
    engines expose — identical firing order implies identical rng
    streams, so any divergence between engines shows up as a trace
    mismatch rather than a cascade of confusing differences.
    """
    rng = random.Random(seed)
    engine = engine_cls()
    tags = itertools.count()
    trace = []
    handles = []

    def record(tag):
        trace.append(("fire", round(engine.now, 9), tag))

    def spawner(tag, depth):
        trace.append(("fire", round(engine.now, 9), tag))
        if depth:
            # Same-instant append while the drain is mid-bucket.
            handles.append(
                engine.schedule(0.0, spawner, next(tags), depth - 1)
            )

    for _ in range(40):
        for _ in range(rng.randrange(1, 8)):
            roll = rng.random()
            if roll < 0.15:
                handles.append(
                    engine.schedule(0.0, spawner, next(tags), rng.randrange(3))
                )
            elif roll < 0.45 and handles:
                # Overwrite the slot so both engines' handle lists stay
                # positionally equivalent: the calendar queue returns
                # the *same* object on its reuse fast path, the
                # reference heap always returns a fresh one.
                index = rng.randrange(len(handles))
                handles[index] = engine.reschedule(
                    handles[index], engine.now + rng.choice(_DELAYS)
                )
            elif roll < 0.75:
                handles.append(
                    engine.schedule(rng.choice(_DELAYS), record, next(tags))
                )
            else:
                handles.append(
                    engine.schedule_at(
                        engine.now + rng.choice(_DELAYS), record, next(tags)
                    )
                )
        for _ in range(rng.randrange(0, 4)):
            if handles:
                handles[rng.randrange(len(handles))].cancel()
        roll = rng.random()
        if roll < 0.25:
            for _ in range(rng.randrange(1, 5)):
                engine.step()
        elif roll < 0.5:
            processed = engine.run_until(
                engine.now + rng.choice(_DELAYS),
                max_events=rng.choice((None, 1, 2, 5, 17)),
            )
            trace.append(("ran", processed))
        else:
            trace.append(
                ("ran", engine.run_until(engine.now + rng.choice(_DELAYS)))
            )
        trace.append(
            (
                "state",
                engine.pending,
                engine.next_event_time(),
                round(engine.now, 9),
            )
        )
    trace.append(("tail", engine.run(max_events=25)))
    engine.run()
    trace.append(
        (
            "final",
            engine.events_processed,
            round(engine.now, 9),
            engine.pending,
        )
    )
    return trace


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_randomized_workload_equivalence(seed):
    assert _drive(Engine, seed) == _drive(ReferenceEngine, seed)


#: Periods of the randomized periodic workload: shared instants, and a
#: 0.75 s series that lands between them.
_PERIODS = (0.5, 1.0, 1.0, 2.0, 0.75)

#: Periodic series the workload keeps; each slot has at most one live
#: handle, so a callback's own handle is always ``series[slot]``.
_SERIES = 12


def _drive_periodic(engine_cls, seed):
    """Periodic handles under re-arm, cancel and ``reschedule`` from
    their own callbacks, amid phases dense and irregular enough to move
    the calendar queue to its heap and back; returns the engine, the
    observable trace and the scheduler mode after each phase (None on
    the reference heap, which has one mode)."""
    rng = random.Random(seed)
    engine = engine_cls()
    trace = []
    series = []
    modes = []

    def record(tag):
        trace.append((round(engine.now, 9), tag))

    def periodic(delay, slot):
        handle = engine.schedule(delay, tick, slot)
        handle.period = rng.choice(_PERIODS)
        return handle

    def tick(slot):
        trace.append((round(engine.now, 9), "tick", slot))
        own = series[slot]
        roll = rng.random()
        if roll < 0.04:
            own.cancel()  # the series ends
        elif roll < 0.08:
            # A timer's stop() and start(): a fresh series replaces it.
            own.cancel()
            series[slot] = periodic(rng.choice(_PERIODS), slot)
        elif roll < 0.14:
            # Re-armed from its own callback: the series moves.
            series[slot] = engine.reschedule(
                own, engine.now + rng.choice(_PERIODS)
            )
        elif roll < 0.17:
            # Cancelled, then re-armed: one more firing, no period.
            own.cancel()
            series[slot] = engine.reschedule(
                own, engine.now + rng.choice(_PERIODS)
            )
        elif roll < 0.25:
            own.period = rng.choice(_PERIODS)
        elif roll < 0.3:
            engine.schedule(0.0, record, ("echo", slot))

    series.extend(periodic(rng.choice(_PERIODS), slot)
                  for slot in range(_SERIES))
    tag = 0
    handles = []
    for phase in range(8):
        irregular = phase % 2 == 0
        for _ in range(1000):
            if irregular:
                delay = 0.001 + rng.random() * 3.0
            else:
                delay = float(rng.randrange(3))
            handles.append(engine.schedule(delay, record, tag))
            tag += 1
        for _ in range(rng.randrange(40, 120)):
            index = rng.randrange(len(handles))
            if rng.random() < 0.5:
                handles[index].cancel()
            else:
                handles[index] = engine.reschedule(
                    handles[index], engine.now + rng.random() * 2.0
                )
        for _ in range(rng.randrange(0, 4)):
            slot = rng.randrange(_SERIES)
            # Moved from outside: cancel, then ``reschedule`` queues a
            # fresh handle that carries the period.
            series[slot].cancel()
            series[slot] = engine.reschedule(
                series[slot], engine.now + rng.choice(_PERIODS)
            )
        for _ in range(rng.randrange(0, 3)):
            engine.step()
        ran = engine.run_until(
            engine.now + 3.5, max_events=rng.choice((None, 100, 1500))
        )
        trace.append(
            ("ran", ran, engine.pending, engine.next_event_time(),
             round(engine.now, 9))
        )
        modes.append(getattr(engine, "_heap_mode", None))
    for handle in series[::2]:
        handle.cancel()
    trace.append(("tail", engine.run(max_events=50), engine.pending))
    engine.close()
    for handle in series:
        handle.cancel()  # gone with the queue: does nothing
    trace.append(
        ("closed", engine.pending, engine.next_event_time(), engine.run())
    )
    trace.append(("final", engine.events_processed, round(engine.now, 9)))
    return engine, trace, modes


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_periodic_workload_equivalence(seed):
    _, calendar_trace, modes = _drive_periodic(Engine, seed)
    _, reference_trace, _ = _drive_periodic(ReferenceEngine, seed)
    assert calendar_trace == reference_trace
    # The calendar queue really migrated both ways with periodic
    # handles queued.
    assert True in modes
    assert False in modes[modes.index(True):]


def _storm_digest(engine_cls):
    engine = engine_cls()
    scenario = FlapStormScenario(
        n_routers=4,
        prefixes_per_router=6,
        seed=TRACE_SEED,
        engine=engine,
    )
    result = scenario.storm(flaps=15, over_seconds=5.0, observe_for=60.0)
    rib_digests = tuple(
        rib_state_digest(router) for router in scenario.routers
    )
    return (
        engine.events_processed,
        round(engine.now, 9),
        result.session_drops,
        result.total_updates_sent,
        result.crashes,
        tuple(round(t, 9) for t in result.drop_times),
        rib_digests,
    )


#: Pinned outcome of the seeded scenario below: (events_processed,
#: final clock, session_drops, total_updates_sent, crashes,
#: drop_times, per-router Adj-RIB-In digests).  This burst stays below
#: the ignition threshold (no drops), so what it pins is the full
#: convergence state: every MRAI flush, CPU-queue completion, and RIB
#: write in scheduler order.
_GOLDEN_STORM = (
    1470,
    180.0,
    0,
    240,
    0,
    (),
    (
        "806a11c21154a83572b38cf948110f2361271fcd89b589a3e0611533966f17f7",
        "a2f6ea26e2636624cf2af9a9047a410cd485f78a8ac4537b236980ce6b4eac0f",
        "41dd54772cee1100439c9d9206803d3c3fa7a7e0deb7b8ea3d2a3c826c077198",
        "0ec9116fac0f38b385d772570109954cb474d52d830756527357ad9a2e890e77",
    ),
)


def test_flap_storm_golden_digest():
    """Both engines reproduce the pinned end-to-end scenario state.

    The constant above is the full observable outcome of a seeded
    FlapStormScenario (seed = repro.verify.golden.TRACE_SEED).  It
    changes only if scheduler ordering, session logic, or RIB state
    changes — any of which is a semantic regression, not a refactor.
    """
    calendar = _storm_digest(Engine)
    reference = _storm_digest(ReferenceEngine)
    assert calendar == reference
    assert calendar == _GOLDEN_STORM
