"""The generator's draw stream: its identity with ``random.Random``,
its blocks, and the degenerate days that go through it.

``tests/test_generator_parity.py`` pins ordinary days against the
scalar oracle.  What it cannot show is the machinery underneath:

- that a NumPy ``RandomState`` loaded with a ``random.Random``'s state
  continues the *same* stream (the tripwire for a NumPy upgrade),
- that the output does not depend on where the stream's blocks fall,
  and that no more than one block is drawn past what the scalar loop
  would have consumed,
- the shapes an ordinary day rarely or never takes: a lost day (per
  category), a day nobody survives subsampling, an empty allocation,
  one pair at the event cap, and the *scripted* episodes — both tiers
  fed the same crafted draws, so the shape is there by construction,
  not by luck of a seed: an episode cut at midnight, clamped and
  postponed lead withdrawals, AADup's policy draws, bootstraps, and
  one pair carried through several categories.
"""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.collector.record import UpdateKind
from repro.collector.store import SECONDS_PER_DAY
from repro.core.columns import AttributeTable
from repro.verify.golden import FUZZ_SEEDS
from repro.verify.refgen import reference_twin
from repro.workloads import generator as generator_module
from repro.workloads.generator import (
    PLANNED_CATEGORIES,
    TraceGenerator,
    _burst_lengths,
    _DrawStream,
)
from repro.workloads.incidents import BINS_PER_DAY, IncidentSchedule

from .test_generator_parity import columns_digest, small_generator

AADIFF, WADIFF, AADUP, WADUP, WWDUP = PLANNED_CATEGORIES


def assert_twin(
    generator, days, pair_fraction, edit_plan=None, categories=None
):
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
                    day, pair_fraction=pair_fraction, plan=plan,
                    categories=categories, attrs=table,
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
        """The scalar oracle's draws are what the stream had to cover;
        it may overshoot by less than a block, and production never
        draws from the Python generator itself."""
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
            production, oracle = made
            drawn = len(refills) * block
            assert production.calls == 0 and oracle.calls > 0
            assert 0 <= drawn - oracle.calls < block


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

    @pytest.mark.parametrize("category", PLANNED_CATEGORIES)
    def test_whole_day_lost_per_category(self, category):
        """Each category alone on a lost day: its pairs cost their
        draws and create their state, and day 2 continues from it."""
        schedule = IncidentSchedule().mark_lost_bins(1, range(BINS_PER_DAY))
        generator = small_generator(9, schedule=schedule)
        columns = assert_twin(
            generator, (0, 1, 2), 0.3, categories=[category]
        )
        assert len(columns)

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
    """Replays a fixed list of draws (then 0.5s)."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)
        self._next = iter(self.draws)

    def random(self):
        return next(self._next, 0.5)


class ScriptedStream(_DrawStream):
    """A :class:`_DrawStream` over a :class:`ScriptedRandom`'s draws
    (then 0.5s), four at a time, so episodes straddle windows."""

    def __init__(self, rng):
        self._draws = list(rng.draws)
        super().__init__(rng)

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
#: The in-bin offset putting an episode 20 s before midnight (last bin).
BEFORE_MIDNIGHT = (600.0 - 20.0) / 600.0
#: Policy draws: below the 0.25 policy-fluctuation fraction, or not.
HIT, MISS = 0.1, 0.9


def approx(seconds):
    """Offsets into the day, read back off ~2.6e5 s timestamps."""
    return pytest.approx(seconds, abs=1e-6)


class TestScriptedEpisodes:
    """One pair, its draws dictated, through both tiers."""

    DAY = 3

    def run(self, monkeypatch, draws, allocation, reachable=True, med=None):
        """The production rows for one pair entering day ``DAY``
        ``reachable`` (and, if so, ever announced) with ``med``, given
        ``allocation`` — ``(category, count)``s in emission order — and
        ``draws`` as the day's stream, once the scalar oracle is shown
        to write the same bytes, attributes and end state.  Returns
        seconds into the day, kinds, MEDs and variants (None for a
        withdrawal), and the pair's end state."""
        generator = small_generator(1)
        reference = reference_twin(generator)
        pair = generator.population.all_pairs[0]
        plan = generator.plan_day(self.DAY)
        plan.participation = {c: [] for c in PLANNED_CATEGORIES}
        for category, count in allocation:
            plan.participation[category].append((pair, count))
        monkeypatch.setattr(generator_module, "_DrawStream", ScriptedStream)
        monkeypatch.setattr(
            TraceGenerator, "_day_rng",
            lambda self, day, salt=0: ScriptedRandom(draws),
        )
        prefix, asn = pair
        entry = {
            "net": [prefix.network], "plen": [prefix.length], "asn": [asn],
            "flags": [3 * reachable | (med is not None) << 3],
            "med": [] if med is None else [med],
        }
        sides = []
        for side in (generator, reference):
            side.restore_state(entry)
            sides.append(side.day_columns(self.DAY, 1.0, plan=plan))
        got, want = sides
        assert columns_digest(got) == columns_digest(want)
        payload = generator.state_payload()
        assert payload == reference.state_payload()
        assert (payload["net"], payload["asn"]) == ([prefix.network], [asn])
        (flags,) = payload["flags"]
        state = SimpleNamespace(
            reachable=bool(flags & 1), ever_announced=bool(flags & 2),
            variant=flags >> 2 & 1,
            med=payload["med"][0] if flags & 8 else None,
        )
        records = got.to_records()
        announced = [r.attributes for r in records]
        return (
            (got.time - self.DAY * SECONDS_PER_DAY).tolist(),
            [r.kind for r in records],
            [a and a.med for a in announced],
            [a and len(a.as_path) - 2 for a in announced],
            state,
        )

    # -- WWDup: the lead withdrawal -----------------------------------------

    def test_lead_withdrawal_clamped_at_day_start(self, monkeypatch):
        """The first event lands 0.06 s into the day; no micro-gap fits
        before it, so the PLAIN withdrawal shares its timestamp."""
        draws = (ONE_EVENT, FIRST_BIN, 1e-4, *TIMER_30, 0.5)
        times, *_, state = self.run(monkeypatch, draws, [(WWDUP, 1)])
        assert times[0] == times[1] == approx(1e-4 * 600.0)
        assert not state.reachable

    def test_lead_withdrawal_at_its_micro_gap(self, monkeypatch):
        draws = (ONE_EVENT, FIRST_BIN, 0.5, *TIMER_30, 0.5)
        times, *_ = self.run(monkeypatch, draws, [(WWDUP, 1)])
        assert times == approx([300.0 - (0.5 + 3.5 * 0.5), 300.0])

    def test_episode_cut_at_midnight(self, monkeypatch):
        """Three events 30 s apart from 20 s before midnight: one is
        kept, and the next episode still runs."""
        last_bin_start = SECONDS_PER_DAY - 600.0
        draws = (
            THREE_EVENTS, LAST_BIN, BEFORE_MIDNIGHT, *TIMER_30, 0.5,
            ONE_EVENT, FIRST_BIN, 0.5, *TIMER_30, 0.5,
        )
        times, *_ = self.run(monkeypatch, draws, [(WWDUP, 4)])
        assert times == approx(
            [300.0, last_bin_start + 580.0 - 2.25, last_bin_start + 580.0]
        )

    def test_lead_waits_for_an_episode_that_starts_today(self, monkeypatch):
        """An in-bin offset of 1 − 2⁻⁵³ in the last bin rounds the
        episode's start up to midnight itself: the scalar loop emits
        nothing for it — not even the lead withdrawal, which goes to
        the next episode."""
        draws = (
            ONE_EVENT, LAST_BIN, 1.0 - 2.0 ** -53, *TIMER_30, 0.5,
            ONE_EVENT, FIRST_BIN, 0.5, *TIMER_30, 0.25,
        )
        times, *_, state = self.run(monkeypatch, draws, [(WWDUP, 2)])
        assert times == approx([300.0 - (0.5 + 3.5 * 0.25), 300.0])
        assert not state.reachable

    def test_lead_never_discharged_leaves_the_pair_reachable(
        self, monkeypatch
    ):
        draws = (ONE_EVENT, LAST_BIN, 1.0 - 2.0 ** -53, *TIMER_30, 0.5)
        times, *_, state = self.run(monkeypatch, draws, [(WWDUP, 1)])
        assert times == []
        assert state.reachable

    # -- AADup: a policy draw per event -------------------------------------

    def test_policy_hits_step_the_med(self, monkeypatch):
        """Three events, two policy hits then a miss: MED None → 20 →
        40, and 40 stays."""
        draws = (
            THREE_EVENTS, FIRST_BIN, 0.5, *TIMER_30, 0.5, HIT, HIT, MISS,
        )
        times, kinds, meds, _, state = self.run(
            monkeypatch, draws, [(AADUP, 3)]
        )
        assert times == approx([300.0, 330.0, 360.0])
        assert kinds == [UpdateKind.ANNOUNCE] * 3
        assert meds == [20, 40, 40] and state.med == 40

    def test_policy_draw_skipped_at_midnight(self, monkeypatch):
        """An episode cut at midnight after one event takes one policy
        draw, not three: the next episode's burst is the draw after
        it."""
        draws = (
            THREE_EVENTS, LAST_BIN, BEFORE_MIDNIGHT, *TIMER_30, 0.5, HIT,
            ONE_EVENT, FIRST_BIN, 0.5, *TIMER_30, 0.5, HIT,
        )
        times, _, meds, _, state = self.run(
            monkeypatch, draws, [(AADUP, 4)], med=20
        )
        assert times == approx([300.0, SECONDS_PER_DAY - 20.0])
        # Emission order: 20 → 40 near midnight, then 40 → 20.
        assert meds == [20, 40] and state.med == 20

    def test_policy_draws_follow_a_bootstrap(self, monkeypatch):
        """A down route: the bootstrap takes no policy draw, so the
        three events read the three draws after the episode's six."""
        draws = (
            THREE_EVENTS, FIRST_BIN, 0.5, *TIMER_30, 0.5, HIT, MISS, HIT,
        )
        times, _, meds, _, state = self.run(
            monkeypatch, draws, [(AADUP, 3)], reachable=False
        )
        assert times == approx([300.0, 330.0, 360.0, 390.0])
        assert meds == [None, 20, 20, 40] and state.med == 40

    # -- bootstraps ---------------------------------------------------------

    @pytest.mark.parametrize("category", (AADIFF, WADIFF, AADUP))
    def test_bootstrap_pushes_the_event_past_midnight(
        self, monkeypatch, category
    ):
        """A route found down announces one period ahead of its first
        event; 20 s before midnight, that event is cut, and the next
        episode runs with the route up."""
        draws = (
            ONE_EVENT, LAST_BIN, BEFORE_MIDNIGHT, *TIMER_30, 0.5,
            ONE_EVENT, FIRST_BIN, 0.5, *TIMER_30, 0.5, MISS,
        )
        times, kinds, meds, variants, state = self.run(
            monkeypatch, draws, [(category, 2)], reachable=False
        )
        bootstrap = SECONDS_PER_DAY - 20.0
        if category is WADIFF:
            assert times == approx([300.0 - 2.25, 300.0, bootstrap])
            assert kinds[0] == UpdateKind.WITHDRAW
            assert variants == [None, 1, 0]
        else:
            assert times == approx([300.0, bootstrap])
            assert variants == ([1, 0] if category is AADIFF else [0, 0])
        assert meds[-1] is None
        assert state.reachable and state.ever_announced

    # -- WA*: a withdrawal ahead of each announce -----------------------------

    def test_wadup_lead_withdrawal_clamped_at_day_start(self, monkeypatch):
        draws = (THREE_EVENTS, FIRST_BIN, 1e-4, *TIMER_30, 0.5)
        times, kinds, *_ = self.run(monkeypatch, draws, [(WADUP, 3)])
        first = 1e-4 * 600.0
        assert times == approx([
            first, first, first + 30.0 - 2.25, first + 30.0,
            first + 60.0 - 2.25, first + 60.0,
        ])
        assert kinds == [UpdateKind.WITHDRAW, UpdateKind.ANNOUNCE] * 3

    def test_wadup_from_a_down_route_skips_its_first_withdrawal(
        self, monkeypatch
    ):
        draws = (THREE_EVENTS, FIRST_BIN, 0.5, *TIMER_30, 0.5)
        _, kinds, *_ = self.run(
            monkeypatch, draws, [(WADUP, 3)], reachable=False
        )
        assert kinds == [UpdateKind.ANNOUNCE] + [
            UpdateKind.WITHDRAW, UpdateKind.ANNOUNCE
        ] * 2

    # -- one pair through several categories ------------------------------

    def test_state_carries_between_categories(self, monkeypatch):
        """A down route, through the categories in emission order:
        AADiff bootstraps and toggles to variant 1, WADiff withdraws and
        toggles back, AADup keeps variant 0 and steps the MED, and WWDup
        withdraws it for the day."""

        def episode(offset):
            return (ONE_EVENT, FIRST_BIN, offset, *TIMER_30, 0.5)

        draws = (
            *episode(0.1), *episode(0.3), *episode(0.5), HIT, *episode(0.7)
        )
        times, kinds, meds, variants, state = self.run(
            monkeypatch, draws,
            [(AADIFF, 1), (WADIFF, 1), (AADUP, 1), (WWDUP, 1)],
            reachable=False,
        )
        A, W = UpdateKind.ANNOUNCE, UpdateKind.WITHDRAW
        assert times == approx(
            [60.0, 90.0, 177.75, 180.0, 300.0, 417.75, 420.0]
        )
        assert kinds == [A, A, W, A, A, W, W]
        assert variants == [0, 1, None, 0, 0, None, None]
        assert meds == [None, None, None, None, 20, None, None]
        assert not state.reachable
        assert (state.variant, state.med) == (0, 20)


# -- the empty-selection and pair_fraction bugs --------------------------------


class TestSelectionArguments:
    def test_empty_category_selection_is_an_empty_day(self):
        generator = small_generator(5)
        assert len(generator.day_columns(0, pair_fraction=1.0)) > 0
        columns = generator.day_columns(0, pair_fraction=1.0, categories=())
        assert len(columns) == 0
        assert len(generator.day_columns(0, 1.0, categories=[])) == 0

    @pytest.mark.parametrize("pair_fraction", (0.0, -1.0, 1.5, float("nan")))
    def test_pair_fraction_outside_unit_interval_is_rejected(
        self, pair_fraction
    ):
        with pytest.raises(ValueError, match="pair_fraction"):
            small_generator(5).day_columns(0, pair_fraction=pair_fraction)
