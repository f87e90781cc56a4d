"""Cross-cutting property-based tests: system-level invariants that
hold regardless of inputs."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.rib import LocRib, Route, best_route
from repro.collector.record import UpdateKind, UpdateRecord
from repro.net.prefix import Prefix
from repro.sim.engine import Engine
from repro.workloads.generator import PeerPopulation, TraceGenerator

from .helpers import NO_PAIR_STATE, classified_counts

P = Prefix.parse


# ---------------------------------------------------------------------------
# decision process
# ---------------------------------------------------------------------------

routes = st.builds(
    lambda path, peer, lp, med: Route(
        P("10.0.0.0/8"),
        PathAttributes(
            as_path=AsPath(path), next_hop=peer, local_pref=lp, med=med
        ),
        peer,
    ),
    st.lists(st.integers(1, 100), min_size=1, max_size=5),
    st.integers(1, 50),
    st.one_of(st.none(), st.integers(0, 200)),
    st.one_of(st.none(), st.integers(0, 200)),
)


@settings(max_examples=80)
@given(st.lists(routes, min_size=1, max_size=8))
def test_best_route_permutation_invariant(candidates):
    """The decision process must not depend on announcement order."""
    rng = random.Random(42)
    baseline = best_route(candidates)
    for _ in range(3):
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        assert best_route(shuffled) == baseline


@settings(max_examples=80)
@given(st.lists(routes, min_size=1, max_size=8))
def test_best_route_is_a_candidate(candidates):
    best = best_route(candidates)
    assert best in candidates


def _neighbor_as(route):
    return route.attributes.as_path.neighbor_as


@settings(max_examples=50)
@given(st.lists(routes, min_size=2, max_size=8))
def test_removing_non_best_does_not_change_winner(candidates):
    """True of a removed route outside the winner's neighbour AS, and
    of any losing route when no candidate carries a MED."""
    best = best_route(candidates)
    no_med = all(r.attributes.med is None for r in candidates)
    for removed in candidates:
        if removed != best and (
            no_med or _neighbor_as(removed) != _neighbor_as(best)
        ):
            reduced = [r for r in candidates if r != removed]
            assert best_route(reduced) == best


@example(near=2, far=1, med=1)
@given(
    near=st.integers(2, 100),
    far=st.integers(1, 100),
    med=st.integers(1, 200),
)
def test_med_makes_the_winner_depend_on_a_losing_route(near, far, med):
    # MED compares only within a neighbour AS, so the decision process
    # is not independent of irrelevant alternatives (RFC 3345's root).
    assume(far < near)

    def route(neighbor, peer, med=None):
        attributes = PathAttributes(
            as_path=AsPath((neighbor,)), next_hop=peer, med=med
        )
        return Route(P("10.0.0.0/8"), attributes, peer)

    loser = route(near, peer=1, med=med)
    other = route(far, peer=2)
    winner = route(near, peer=2)
    assert best_route([loser, other, winner]) == winner
    assert best_route([other, winner]) == other


# ---------------------------------------------------------------------------
# LocRib consistency under arbitrary update sequences
# ---------------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.booleans(),                      # announce?
        st.integers(1, 4),                  # peer
        st.sampled_from(["10.0.0.0/8", "11.0.0.0/8"]),
        st.integers(1, 3),                  # path length
    ),
    max_size=30,
)


@settings(max_examples=80)
@given(ops)
def test_locrib_best_always_consistent_with_adjin(sequence):
    """After any update sequence, the chosen best must equal a fresh
    decision over the surviving candidates."""
    rib = LocRib()
    for is_announce, peer, prefix_text, plen in sequence:
        prefix = P(prefix_text)
        if is_announce:
            attrs = PathAttributes(
                as_path=AsPath(tuple(range(100, 100 + plen))),
                next_hop=peer,
            )
            rib.apply_announce(peer, prefix, attrs)
        else:
            rib.apply_withdraw(peer, prefix)
    for prefix_text in ("10.0.0.0/8", "11.0.0.0/8"):
        prefix = P(prefix_text)
        candidates = rib.adj_in.candidates(prefix)
        expected = best_route(candidates)
        assert rib.best(prefix) == expected


# ---------------------------------------------------------------------------
# engine determinism
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.floats(0.0, 100.0), st.integers(0, 9)),
        max_size=20,
    )
)
def test_engine_runs_are_reproducible(events):
    def run_once():
        engine = Engine()
        fired = []
        for delay, tag in events:
            engine.schedule(delay, fired.append, tag)
        engine.run()
        return fired, engine.now

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# generator invariants
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_generator():
    population = PeerPopulation.synthesize(
        n_peers=5, total_prefixes=400, n_dominant=2, seed=13
    )
    return TraceGenerator(population=population, seed=13)


class TestGeneratorInvariants:
    def test_records_reproducible(self, tiny_generator):
        a = tiny_generator.day_columns(5, pair_fraction=1.0)
        tiny_generator.restore_state(NO_PAIR_STATE)
        b = tiny_generator.day_columns(5, pair_fraction=1.0)
        tiny_generator.restore_state(NO_PAIR_STATE)
        assert a.to_records() == b.to_records()

    def test_per_pair_times_monotone(self, tiny_generator):
        records = tiny_generator.day_columns(6, 1.0).to_records()
        tiny_generator.restore_state(NO_PAIR_STATE)
        by_pair = {}
        for i, record in enumerate(records):
            by_pair.setdefault((record.prefix, record.peer_asn), []).append(
                (record.time, i)
            )
        for times in by_pair.values():
            sorted_by_time = sorted(times)
            assert sorted_by_time == sorted(times, key=lambda t: t[0])

    def test_classification_has_no_surprise_categories(self, tiny_generator):
        """A freshly-seeded single day classifies into exactly the
        planned categories plus bootstrap/uncategorized events."""
        records = tiny_generator.day_columns(7, 1.0).to_records()
        tiny_generator.restore_state(NO_PAIR_STATE)
        counts = classified_counts(records)
        assert counts.total == len(records)

    def test_plan_totals_bound_materialized_counts(self, tiny_generator):
        plan = tiny_generator.plan_day(8)
        records = tiny_generator.day_columns(
            8, pair_fraction=1.0, plan=plan
        )
        tiny_generator.restore_state(NO_PAIR_STATE)
        planned = sum(
            plan.category_total(c) for c in plan.participation
        )
        # Records include W halves and bootstraps, so they exceed the
        # planned event count, but not by more than ~2.5x (each event
        # emits at most 2-3 records).
        assert planned * 0.5 <= len(records) <= planned * 3.0


# ---------------------------------------------------------------------------
# end-to-end eventual consistency
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck

flap_sequences = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=300.0),  # when
        st.integers(0, 5),                          # which prefix
        st.booleans(),                              # up or down
    ),
    max_size=20,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(flap_sequences)
def test_router_pair_eventually_consistent(sequence):
    """After any announce/withdraw schedule and enough quiet time, the
    peer's table equals the origin's surviving originations exactly."""
    from repro.sim.router import Router, connect

    engine = Engine()
    origin = Router(engine, asn=100, router_id=1, mrai_interval=5.0)
    observer = Router(engine, asn=200, router_id=2, mrai_interval=5.0)
    connect(origin, observer)
    engine.run_until(30.0)
    prefixes = [Prefix((90 << 24) + i * 65536, 16) for i in range(6)]
    final_state = {}
    # Events fire in time order (FIFO on ties, matching the stable
    # sort).  Order by the *effective* scheduled time: tiny offsets
    # (e.g. 1e-144) collapse into 30.0 in float arithmetic, so sorting
    # the raw offsets would disagree with the engine's fire order.
    for when, index, up in sorted(sequence, key=lambda e: 30.0 + e[0]):
        final_state[prefixes[index]] = up
    for when, index, up in sequence:
        prefix = prefixes[index]
        if up:
            engine.schedule_at(
                30.0 + when, origin.originate, prefix
            )
        else:
            engine.schedule_at(
                30.0 + when, origin.withdraw_origin, prefix
            )
    # Quiet period: several MRAI rounds beyond the last event.
    engine.run_until(30.0 + 300.0 + 60.0)
    expected = {p for p, up in final_state.items() if up}
    # Note: out-of-order same-time events resolve by schedule order,
    # which matches dict insertion order here.
    actual = {p for p in prefixes if observer.loc_rib.best(p) is not None}
    assert actual == expected
