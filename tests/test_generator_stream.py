"""The WWDup tier's draw stream: its identity with ``random.Random``,
its blocks, and the degenerate days that go through it.

``tests/test_generator_parity.py`` pins ordinary days against the
scalar oracle.  What it cannot show is the machinery underneath:

- that a NumPy ``RandomState`` loaded with a ``random.Random``'s state
  continues the *same* stream (the tripwire for a NumPy upgrade),
- that the output does not depend on where the stream's blocks fall,
  and that no more than one block is drawn past what the scalar loop
  would have consumed,
- the shapes an ordinary day rarely or never takes: a lost day, a day
  nobody survives subsampling, an empty allocation, one pair at the
  event cap, an episode cut at midnight, a lead withdrawal clamped at
  the day's start, an episode that starts on the day's last instant.
  The last three are *scripted*: both tiers are fed the same crafted
  draws, so the shape is there by construction, not by luck of a seed.
"""

import random

import numpy as np
import pytest

from repro.collector.store import SECONDS_PER_DAY
from repro.core.columns import AttributeTable
from repro.core.taxonomy import UpdateCategory
from repro.verify.golden import FUZZ_SEEDS
from repro.verify.refgen import reference_twin
from repro.workloads import generator as generator_module
from repro.workloads.generator import (
    TraceGenerator,
    _burst_lengths,
    _ColumnSink,
    _DrawStream,
)
from repro.workloads.incidents import BINS_PER_DAY, IncidentSchedule

from .test_generator_parity import columns_digest, small_generator

WWDUP = UpdateCategory.WWDUP


def assert_twin(generator, days, pair_fraction, edit_plan=None):
    """``generator`` and its scalar twin agree on ``days``: record
    bytes, attribute tables and carried pair state.  ``edit_plan``
    rewrites each day's plan (both sides get their own copy).  Returns
    the last day's columns."""
    reference = reference_twin(generator)
    tables = AttributeTable(), AttributeTable()
    for day in days:
        batches = []
        for side, table in zip((generator, reference), tables):
            plan = side.plan_day(day)
            if edit_plan is not None:
                edit_plan(plan)
            batches.append(
                side.day_columns(
                    day, pair_fraction=pair_fraction, plan=plan, attrs=table
                )
            )
        got, want = batches
        assert columns_digest(got) == columns_digest(want)
        assert generator.state_payload() == reference.state_payload()
    return got


# -- (a) the stream is random.Random's ----------------------------------------


class TestStreamIdentity:
    @pytest.mark.parametrize(
        "draws, words",
        [
            (0, 0),  # freshly seeded: the state buffer is spent
            (157, 0),  # mid-buffer
            (157, 1),  # mid-buffer on an odd 32-bit word
            (311, 1),  # one word short of a regeneration
        ],
    )
    def test_clone_continues_the_python_stream(
        self, monkeypatch, draws, words
    ):
        """10⁵ doubles — 320 regenerations of the 624-word state —
        from the clone are bit-for-bit the Python generator's."""
        monkeypatch.setattr(generator_module, "_STREAM_BLOCK", 100_000)
        rng = random.Random(20260417)
        for _ in range(draws):
            rng.random()
        for _ in range(words):
            rng.getrandbits(32)
        stream = _DrawStream(rng)
        stream.more()
        expected = np.array([rng.random() for _ in range(100_000)])
        assert stream.window.tobytes() == expected.tobytes()

    def test_more_keeps_the_unconsumed_tail(self, monkeypatch):
        monkeypatch.setattr(generator_module, "_STREAM_BLOCK", 10)
        rng = random.Random(5)
        stream = _DrawStream(rng)
        expected = np.array([rng.random() for _ in range(20)])
        stream.more()
        stream.at = 7
        stream.more()
        assert stream.at == 0
        assert stream.window.tobytes() == expected[7:].tobytes()

    def test_burst_lengths_on_integer_quotients(self):
        """Draws whose ``log`` quotient sits on (or a last bit either
        side of) an integer — where ``np.log`` and ``math.log`` could
        round ``ceil`` apart — take the scalar law's value."""
        exact = np.array([1.0 - (2.0 / 3.0) ** k for k in range(0, 80)])
        draws = np.concatenate(
            [np.nextafter(exact, 0.0), exact, np.nextafter(exact, 1.0)]
        )
        draws = draws[(draws >= 0.0) & (draws < 1.0)]

        class Fixed(random.Random):
            def random(self):
                return self.value

        rng = Fixed()
        expected = []
        for value in draws.tolist():
            rng.value = value
            expected.append(TraceGenerator._geometric(rng, 1.0 / 3.0))
        assert _burst_lengths(draws).tolist() == expected


# -- (b) blocks do not show ---------------------------------------------------


class CountingRandom(random.Random):
    """Counts ``random()`` calls — the only draw materialization makes
    (``uniform`` goes through it)."""

    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


class TestBlocks:
    @pytest.mark.parametrize("block", (7, 64, 4096))
    @pytest.mark.parametrize("pair_fraction", (1.0, 0.3, 0.05))
    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_any_block_size_equals_the_scalar_oracle(
        self, monkeypatch, seed, pair_fraction, block
    ):
        monkeypatch.setattr(generator_module, "_STREAM_BLOCK", block)
        columns = assert_twin(
            small_generator(seed), (seed, seed + 1), pair_fraction
        )
        assert len(columns)

    @pytest.mark.parametrize("block", (7, 64, 4096))
    @pytest.mark.parametrize("pair_fraction", (1.0, 0.3))
    def test_at_most_one_block_is_drawn_past_the_scalar_loop(
        self, monkeypatch, pair_fraction, block
    ):
        """WWDup's share of the scalar oracle's draws (its total minus
        what the scalar categories drew on the vectorized side) is
        what the stream had to cover; it may overshoot by less than a
        block."""
        monkeypatch.setattr(generator_module, "_STREAM_BLOCK", block)
        day_rng = TraceGenerator._day_rng
        made = []

        def counting_day_rng(self, day, salt=0):
            base = day_rng(self, day, salt)
            if salt != 1:
                return base  # planning draws integers, not random()
            rng = CountingRandom()
            rng.setstate(base.getstate())
            made.append(rng)
            return rng

        refills = []
        more = _DrawStream.more

        def counting_more(self):
            refills.append(1)
            more(self)

        monkeypatch.setattr(TraceGenerator, "_day_rng", counting_day_rng)
        monkeypatch.setattr(_DrawStream, "more", counting_more)
        generator = small_generator(4)
        reference = reference_twin(generator)
        for day in (0, 1):
            made.clear()
            refills.clear()
            got = generator.day_columns(day, pair_fraction=pair_fraction)
            want = reference.day_columns(day, pair_fraction=pair_fraction)
            assert got.data.tobytes() == want.data.tobytes()
            scalar_side, oracle = made
            consumed = oracle.calls - scalar_side.calls
            drawn = len(refills) * block
            assert consumed > 0
            assert 0 <= drawn - consumed < block


# -- (d) degenerate days ------------------------------------------------------


class TestDegenerateDays:
    @pytest.mark.parametrize("pair_fraction", (1.0, 0.3))
    def test_whole_day_lost(self, pair_fraction):
        """No bin to sample: every surviving pair costs its subsample
        draw and one burst-length draw, gets its state created, and
        emits nothing."""
        schedule = IncidentSchedule().mark_lost_bins(1, range(BINS_PER_DAY))
        generator = small_generator(9, schedule=schedule)
        columns = assert_twin(generator, (0, 1, 2), pair_fraction)
        assert len(columns)  # day 2 is ordinary again
        generator = small_generator(9, schedule=schedule)
        lost = generator.day_columns(1, pair_fraction=pair_fraction)
        assert len(lost) == 0
        assert generator.state_payload()["net"]

    def test_no_pair_survives_subsampling(self):
        columns = assert_twin(small_generator(2), (0, 1), 1e-12)
        assert len(columns) == 0

    def test_zero_wwdup_allocation(self):
        def no_flood(plan):
            plan.participation[WWDUP] = []

        columns = assert_twin(small_generator(3), (0, 1), 1.0, no_flood)
        assert len(columns)

    def test_pairs_with_no_events(self):
        def hollow(plan):
            plan.participation[WWDUP] = [
                (pair, 0) for pair, _ in plan.participation[WWDUP]
            ]

        assert_twin(small_generator(3), (0, 1), 0.5, hollow)

    @pytest.mark.parametrize("block", (64, None))
    def test_one_pair_at_the_event_cap(self, monkeypatch, block):
        """3000 events are ~1000 episodes and ~6000 draws: at a
        64-double block the one pair spans ~90 windows."""
        if block is not None:
            monkeypatch.setattr(generator_module, "_STREAM_BLOCK", block)
        generator = small_generator(6)
        cap = generator.targets.max_events_per_pair

        def one_pair(plan):
            pair, _ = plan.participation[WWDUP][0]
            plan.participation[WWDUP] = [(pair, cap)]

        columns = assert_twin(generator, (0, 1), 1.0, one_pair)
        assert len(columns) > cap // 2


class ScriptedRandom(random.Random):
    """Replays a fixed list of draws."""

    def script(self, draws):
        self._draws = iter(draws)
        return self

    def random(self):
        return next(self._draws)


class ScriptedStream(_DrawStream):
    """A :class:`_DrawStream` over a fixed list of draws (then 0.5s)."""

    def __init__(self, draws):
        self._draws = list(draws)
        super().__init__(random.Random(0))

    def more(self):
        block, self._draws = self._draws[:4], self._draws[4:]
        block += [0.5] * (4 - len(block))
        self.window = np.concatenate((self.window[self.at:], block))
        self._start_window()


#: Draws that pick a period: the 30 s timer exactly (selector below the
#: 0.45 mass, spread 0.5 → 29.5 + 0.5).
TIMER_30 = (0.1, 0.5)
FIRST_BIN, LAST_BIN = 0.0, 1.0 - 2.0 ** -53
ONE_EVENT, THREE_EVENTS = 0.0, 0.6  # ceil(log(1 - u) / log(2/3))


def approx(seconds):
    """Offsets into the day, read back off ~2.6e5 s timestamps."""
    return pytest.approx(seconds, abs=1e-6)


class TestScriptedEpisodes:
    """One reachable pair, its draws dictated, through both tiers."""

    DAY = 3

    def run(self, draws, count):
        """(vectorized rows, scalar rows, pair reachable afterwards ×2)
        for one pair entering day ``DAY`` reachable with ``count``
        events and ``draws`` as its stream."""
        results = []
        for vectorized in (True, False):
            generator = small_generator(1)
            plan = generator.plan_day(self.DAY)
            pair = generator.population.all_pairs[0]
            state = generator._state(pair)
            state.reachable = state.ever_announced = True
            sink = _ColumnSink(AttributeTable())
            if vectorized:
                generator._emit_wwdup_columns(
                    ScriptedStream(draws), plan, [(pair, count)], 1.0, sink
                )
            else:
                generator._emit_pair_day(
                    ScriptedRandom().script(draws), plan, WWDUP, pair,
                    count, sink,
                )
            results.append((sink.finish(), state.reachable))
        (got, got_reachable), (want, want_reachable) = results
        assert got.data.tobytes() == want.data.tobytes()
        assert got_reachable == want_reachable
        return got.time - self.DAY * SECONDS_PER_DAY, got_reachable

    def test_lead_withdrawal_clamped_at_day_start(self):
        """The first event lands 0.06 s into the day; no micro-gap fits
        before it, so the PLAIN withdrawal shares its timestamp."""
        draws = (ONE_EVENT, FIRST_BIN, 1e-4, *TIMER_30, 0.5)
        times, reachable = self.run(draws, count=1)
        assert times[0] == times[1] == approx(1e-4 * 600.0)
        assert not reachable

    def test_lead_withdrawal_at_its_micro_gap(self):
        draws = (ONE_EVENT, FIRST_BIN, 0.5, *TIMER_30, 0.5)
        times, _ = self.run(draws, count=1)
        assert times.tolist() == approx([300.0 - (0.5 + 3.5 * 0.5), 300.0])

    def test_episode_cut_at_midnight(self):
        """Three events 30 s apart from 20 s before midnight: one is
        kept, and the next episode still runs."""
        last_bin_start = SECONDS_PER_DAY - 600.0
        draws = (
            THREE_EVENTS, LAST_BIN, (600.0 - 20.0) / 600.0, *TIMER_30, 0.5,
            ONE_EVENT, FIRST_BIN, 0.5, *TIMER_30, 0.5,
        )
        times, _ = self.run(draws, count=4)
        assert times.tolist() == approx(
            [300.0, last_bin_start + 580.0 - 2.25, last_bin_start + 580.0]
        )

    def test_lead_waits_for_an_episode_that_starts_today(self):
        """An in-bin offset of 1 − 2⁻⁵³ in the last bin rounds the
        episode's start up to midnight itself: the scalar loop emits
        nothing for it — not even the lead withdrawal, which goes to
        the next episode."""
        draws = (
            ONE_EVENT, LAST_BIN, 1.0 - 2.0 ** -53, *TIMER_30, 0.5,
            ONE_EVENT, FIRST_BIN, 0.5, *TIMER_30, 0.25,
        )
        times, reachable = self.run(draws, count=2)
        assert times.tolist() == approx([300.0 - (0.5 + 3.5 * 0.25), 300.0])
        assert not reachable

    def test_lead_never_discharged_leaves_the_pair_reachable(self):
        draws = (ONE_EVENT, LAST_BIN, 1.0 - 2.0 ** -53, *TIMER_30, 0.5)
        times, reachable = self.run(draws, count=1)
        assert len(times) == 0
        assert reachable


# -- the empty-selection and pair_fraction bugs --------------------------------


class TestSelectionArguments:
    def test_empty_category_selection_is_an_empty_day(self):
        generator = small_generator(5)
        assert len(generator.day_columns(0, pair_fraction=1.0)) > 0
        columns = generator.day_columns(0, pair_fraction=1.0, categories=())
        assert len(columns) == 0
        assert generator.day_records(0, 1.0, categories=[]) == []

    @pytest.mark.parametrize("pair_fraction", (0.0, -1.0, 1.5, float("nan")))
    def test_pair_fraction_outside_unit_interval_is_rejected(
        self, pair_fraction
    ):
        with pytest.raises(ValueError, match="pair_fraction"):
            small_generator(5).day_columns(0, pair_fraction=pair_fraction)
