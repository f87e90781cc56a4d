"""Parallel multi-exchange simulation: differential and API tests.

The conservative-lookahead driver (:mod:`repro.sim.parallel`) must be
*invisible* in the results: a partitioned run — any worker count — has
to reproduce the single-engine :class:`ReferenceEngine` oracle's
domain digests bit-for-bit.  The property tests drive seeded
:class:`ExchangeDayConfig` days through oracle and driver and compare;
the golden test pins a 5-exchange parallel digest; the API tests cover
the :class:`EventScheduler` protocol, the :func:`repro.sim.simulate`
façade (both engines agree on every named scenario), and the ``sim``
CLI.
"""

import time
import warnings

import pytest

from repro.__main__ import main as repro_main
from repro.sim.engine import Engine, SimulationError
from repro.sim.flapstorm import FlapStormScenario
from repro.sim.parallel import ParallelDriver
from repro.sim.partition import ExchangeDayConfig
from repro.sim.refengine import ReferenceEngine
from repro.sim.scenarios import (
    DAY_SCENARIOS,
    SCENARIOS,
    day_config,
    run_exchange_day,
    simulate,
)
from repro.sim.scheduler import EventScheduler
from repro.sim.sync import SynchronizationStudy
from repro.verify.golden import FUZZ_SEEDS, TRACE_SEED


def _small_day(seed: int, exchanges: int = 3) -> ExchangeDayConfig:
    """A minutes-long partitionable day, cheap enough for per-seed
    differential runs."""
    return ExchangeDayConfig(
        exchanges=exchanges,
        providers=8,
        prefixes_per_provider=1,
        settle=30.0,
        duration=240.0,
        seed=seed,
        flap_rate=1.0 / 40.0,
        down_time=10.0,
    )


def _parallel(config: ExchangeDayConfig, workers: int):
    with ParallelDriver(config, workers=workers) as driver:
        driver.run()
        return driver.finish()


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_partitioned_matches_reference_oracle(seed):
    """Inline (workers=1) window loop vs the single reference engine:
    identical per-partition digests and event totals on every seed."""
    config = _small_day(seed)
    events, digest = run_exchange_day(ReferenceEngine, config)
    result = _parallel(config, workers=1)
    assert result.digest == digest
    assert result.events == events
    assert result.workers == 1
    assert result.windows > 1


def test_worker_count_does_not_change_results():
    """2 and 3 real worker processes agree with each other and with
    the single-engine calendar run (canonical injection order makes
    the outcome worker-count-independent)."""
    config = _small_day(FUZZ_SEEDS[0])
    events, digest = run_exchange_day(Engine, config)
    two = _parallel(config, workers=2)
    three = _parallel(config, workers=3)
    assert two.digest == digest == three.digest
    assert two.events == events == three.events
    assert two.workers == 2 and three.workers == 3


#: Pinned combined digest of the 5-exchange golden day below (seed =
#: repro.verify.golden.TRACE_SEED, 2 worker processes).  It changes
#: only if scheduler ordering, session/RIB logic, partition
#: construction, or the cross-exchange protocol changes semantics.
_GOLDEN_DAY_EVENTS = 5480
_GOLDEN_DAY_DIGEST = (
    "f3ebb5ba36565e7d4a8edaa5943419dede31c91beefda997619e2cc6c1307e5a"
)


def _golden_day() -> ExchangeDayConfig:
    return ExchangeDayConfig(
        exchanges=5,
        providers=15,
        prefixes_per_provider=2,
        settle=60.0,
        duration=600.0,
        seed=TRACE_SEED,
        flap_rate=1.0 / 60.0,
        down_time=15.0,
    )


def test_five_exchange_parallel_golden_digest():
    result = _parallel(_golden_day(), workers=2)
    assert result.events == _GOLDEN_DAY_EVENTS
    assert result.digest == _GOLDEN_DAY_DIGEST


def test_golden_digest_matches_single_engine():
    events, digest = run_exchange_day(Engine, _golden_day())
    assert (events, digest) == (_GOLDEN_DAY_EVENTS, _GOLDEN_DAY_DIGEST)


def test_driver_rejects_single_exchange():
    with pytest.raises(SimulationError):
        ParallelDriver(_small_day(1, exchanges=1))


def test_worker_failure_surfaces_as_parallel_error():
    """A worker that dies mid-protocol raises, not hangs."""
    from repro.sim.parallel import ParallelSimError

    driver = ParallelDriver(_small_day(1), workers=2)
    try:
        driver._ports[0].process.terminate()
        driver._ports[0].process.join()
        with pytest.raises(ParallelSimError):
            driver.run()
    finally:
        driver.close()


def test_close_returns_promptly_after_a_worker_dies():
    """Every worker closes the parent-side pipe ends it inherited, so
    the parent's ``close`` reaches the survivors as EOF at once: no
    join timeout, no terminate."""
    driver = ParallelDriver(_small_day(1), workers=3)
    driver._ports[1].process.terminate()
    driver._ports[1].process.join()
    # lint: allow[DET002] -- the assertion is a wall-time bound
    started = time.perf_counter()
    driver.close()
    # lint: allow[DET002] -- the assertion is a wall-time bound
    assert time.perf_counter() - started < 1.0
    # Exit code 0: the survivors returned on EOF, not on SIGTERM.
    assert all(port.process.exitcode == 0 for port in driver._ports[::2])


# -- EventScheduler protocol ------------------------------------------------

def test_engines_implement_event_scheduler():
    assert isinstance(Engine(), EventScheduler)
    assert isinstance(ReferenceEngine(), EventScheduler)


def test_engine_level_cancel():
    for engine_cls in (Engine, ReferenceEngine):
        engine = engine_cls()
        fired = []
        handle = engine.schedule(1.0, fired.append, 1)
        engine.cancel(handle)
        engine.run_until(5.0)
        assert fired == [] and engine.pending == 0


# -- the simulate() façade --------------------------------------------------

@pytest.mark.parametrize("name", [name for name, _ in SCENARIOS])
def test_simulate_engines_agree(name):
    ref = simulate(name, engine="reference", smoke=True)
    cal = simulate(name, engine="calendar", smoke=True)
    assert ref.digest == cal.digest
    assert ref.events == cal.events
    if name in DAY_SCENARIOS:
        par = simulate(name, engine="parallel", workers=2, smoke=True)
        assert par.digest == cal.digest
        assert par.events == cal.events
        assert par.workers == 2 and par.windows > 1


def test_simulate_seed_changes_digest():
    base = simulate("multi_exchange_day", engine="calendar", smoke=True)
    other = simulate(
        "multi_exchange_day", engine="calendar", smoke=True, seed=11
    )
    assert base.digest != other.digest


def test_simulate_rejects_bad_arguments():
    with pytest.raises(SimulationError):
        simulate("no_such_scenario", smoke=True)
    with pytest.raises(SimulationError):
        simulate("flap_storm", engine="parallel", smoke=True)
    with pytest.raises(SimulationError):
        simulate("flap_storm", engine="no_such_engine", smoke=True)
    with pytest.raises(SimulationError):
        simulate("flap_storm", engine="calendar", workers=4, smoke=True)


def test_day_config_presets():
    full = day_config()
    assert (full.exchanges, full.providers) == (5, 90)
    smoke = day_config(smoke=True, seed=3)
    assert smoke.exchanges < full.exchanges
    assert smoke.end_time < full.end_time
    assert smoke.seed == 3


# -- canonical entry points -------------------------------------------------

def test_canonical_entry_points_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        SynchronizationStudy(n=3, seed=1, external_rate=0.0).advance(120.0)
        FlapStormScenario(n_routers=3, prefixes_per_router=2).storm(
            flaps=3, over_seconds=2.0, observe_for=20.0
        )


# -- the sim CLI ------------------------------------------------------------

def test_cli_sim_check(capsys):
    rc = repro_main(
        [
            "sim",
            "--scenario", "multi_exchange_day",
            "--engine", "parallel",
            "--workers", "2",
            "--smoke",
            "--check",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "matches the reference oracle" in out


def test_cli_sim_unknown_scenario():
    assert repro_main(["sim", "--scenario", "bogus", "--smoke"]) == 2
