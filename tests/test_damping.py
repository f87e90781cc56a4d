"""Unit and property tests for route-flap damping (RFC 2439 model)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.damping import DampingParameters, RouteFlapDamper
from repro.net.prefix import Prefix

P = Prefix.parse
PFX = P("10.0.0.0/8")
PEER = 1


class TestParameters:
    def test_defaults_are_classic_cisco(self):
        params = DampingParameters()
        assert params.suppress_threshold == 2000.0
        assert params.reuse_threshold == 750.0
        assert params.half_life == 900.0

    def test_decay_rate_halves_in_half_life(self):
        params = DampingParameters()
        assert math.exp(-params.decay_rate * params.half_life) == pytest.approx(0.5)

    def test_ceiling_bounds_suppress_time(self):
        params = DampingParameters()
        # From the ceiling, decay to reuse takes exactly max_suppress_time.
        t = (
            math.log(params.penalty_ceiling / params.reuse_threshold)
            / params.decay_rate
        )
        assert t == pytest.approx(params.max_suppress_time)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            DampingParameters(suppress_threshold=100.0, reuse_threshold=200.0)

    def test_rejects_nonpositive_half_life(self):
        with pytest.raises(ValueError):
            DampingParameters(half_life=0.0)


class TestSuppression:
    def test_single_flap_not_suppressed(self):
        damper = RouteFlapDamper()
        assert not damper.on_withdrawal(PFX, PEER, 0.0)

    def test_rapid_flaps_suppress(self):
        damper = RouteFlapDamper()
        suppressed = False
        for i in range(3):
            suppressed = damper.on_withdrawal(PFX, PEER, float(i))
        assert suppressed  # 3 * 1000 >> 2000

    def test_penalty_decays(self):
        damper = RouteFlapDamper()
        damper.on_withdrawal(PFX, PEER, 0.0)
        p0 = damper.penalty(PFX, PEER, 0.0)
        p_later = damper.penalty(PFX, PEER, 900.0)  # one half-life
        assert p_later == pytest.approx(p0 / 2, rel=1e-6)

    def test_slow_flaps_never_suppress(self):
        damper = RouteFlapDamper()
        # One flap per 2 half-lives: penalty can never reach 2000.
        for i in range(20):
            assert not damper.on_withdrawal(PFX, PEER, i * 1800.0)

    def test_reuse_after_decay(self):
        damper = RouteFlapDamper()
        for i in range(3):
            damper.on_withdrawal(PFX, PEER, float(i))
        assert damper.is_suppressed(PFX, PEER, 10.0)
        # After several half-lives the penalty is below reuse (750).
        later = 10.0 + 4 * 900.0
        assert not damper.is_suppressed(PFX, PEER, later)
        released = damper.reusable(later)
        assert (PFX, PEER) in released

    def test_readvertisement_while_suppressed_stays_suppressed(self):
        """The paper's warning: a legitimate announcement is delayed."""
        damper = RouteFlapDamper()
        for i in range(4):
            damper.on_withdrawal(PFX, PEER, float(i))
        assert damper.on_readvertisement(PFX, PEER, 60.0)

    def test_penalty_capped_at_ceiling(self):
        damper = RouteFlapDamper()
        for i in range(100):
            damper.on_withdrawal(PFX, PEER, float(i))
        assert damper.penalty(PFX, PEER, 100.0) <= (
            damper.params.penalty_ceiling
        )

    def test_max_suppress_time_bound(self):
        damper = RouteFlapDamper()
        for i in range(100):
            damper.on_withdrawal(PFX, PEER, float(i))
        wait = damper.time_until_reuse(PFX, PEER, 100.0)
        assert wait <= damper.params.max_suppress_time + 1e-6

    def test_time_until_reuse_zero_when_not_suppressed(self):
        damper = RouteFlapDamper()
        damper.on_withdrawal(PFX, PEER, 0.0)
        assert damper.time_until_reuse(PFX, PEER, 0.0) == 0.0

    def test_states_are_per_route(self):
        damper = RouteFlapDamper()
        other = P("11.0.0.0/8")
        for i in range(3):
            damper.on_withdrawal(PFX, PEER, float(i))
        assert damper.is_suppressed(PFX, PEER, 3.0)
        assert not damper.is_suppressed(other, PEER, 3.0)
        assert not damper.is_suppressed(PFX, 2, 3.0)

    def test_attribute_change_penalty_smaller(self):
        damper = RouteFlapDamper()
        damper.on_attribute_change(PFX, PEER, 0.0)
        assert damper.penalty(PFX, PEER, 0.0) == pytest.approx(500.0)


@settings(max_examples=50)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=10000.0),
        min_size=1,
        max_size=30,
    )
)
def test_penalty_never_negative_or_above_ceiling(offsets):
    damper = RouteFlapDamper()
    now = 0.0
    for offset in sorted(offsets):
        now = offset
        damper.on_withdrawal(PFX, PEER, now)
        p = damper.penalty(PFX, PEER, now)
        assert 0.0 <= p <= damper.params.penalty_ceiling + 1e-9


@settings(max_examples=50)
@given(st.floats(min_value=0.0, max_value=1e6))
def test_is_suppressed_monotone_in_time(dt):
    """Once a route would be reusable at time t, it stays reusable later."""
    damper = RouteFlapDamper()
    for i in range(5):
        damper.on_withdrawal(PFX, PEER, float(i))
    t0 = 5.0 + dt
    if not damper.is_suppressed(PFX, PEER, t0):
        assert not damper.is_suppressed(PFX, PEER, t0 + 1000.0)
