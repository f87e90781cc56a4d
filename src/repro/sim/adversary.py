"""Adversarial scenarios on the multi-exchange day: the attack side.

ROADMAP item 2 ports the victim / attacker / transit scenario shape
onto the partitioned multi-exchange day
(:mod:`repro.sim.partition`).  An :class:`AdversaryConfig` rides on
:class:`~repro.sim.partition.ExchangeDayConfig` and describes one
seeded attacker — a provider that, in timed pulses, announces routes
it should not:

``hijack_moas``
    The attacker originates the victim's exact prefixes under its own
    origin AS — the classic Multiple-Origin-AS conflict.
``hijack_subprefix``
    The attacker originates *more-specific* subnets of the victim's
    prefixes — the sub-prefix hijack that wins longest-match even
    where the victim's covering route stays up.
``route_leak``
    The attacker re-announces the victim's prefix with the propagation
    path ``victim → transit → attacker`` baked in, then exports it to
    its peers — a textbook Gao-Rexford valley (customer route carried
    provider→customer and re-exported sideways).
``path_forgery``
    The attacker originates the victim's prefix with a forged AS path
    claiming a direct ``attacker–victim`` adjacency that exists in no
    declared topology.
``deagg_storm``
    Misconfiguration, not attack: the attacker floods more-specifics
    of its *own* prefixes — a deaggregation storm (same origin, so
    detection labels it deaggregation rather than hijack).

Partition safety is inherited by construction: the pulse timetable is
a pure function of the day config (derived via the same
``(seed, salt, index)`` scheme as everything else in the partition
module), and pulses are installed at build time on the attacker's
*resident* router at each exchange it attends — they emit no
cross-exchange messages, so the parallel driver's lookahead bounds and
worker-count invariance are untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..bgp.attributes import AsPath, PathAttributes
from ..net.prefix import Prefix
from ..topology.relationships import AsRelationships
from .digests import _derive
from .engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .partition import ExchangeDayConfig, ExchangePartition

__all__ = [
    "ATTACK_KINDS",
    "AdversaryConfig",
    "attack_targets",
    "install_adversary",
    "pulse_times",
    "scenario_relationships",
    "transit_asn",
]

#: The supported attack kinds, presentation order.
ATTACK_KINDS: Tuple[str, ...] = (
    "hijack_moas",
    "hijack_subprefix",
    "route_leak",
    "path_forgery",
    "deagg_storm",
)

#: RNG salt for the attack pulse jitter (partition.py owns 1-3).
_SALT_ATTACK = 4

#: ASN block for the per-provider transit upstreams declared in
#: :func:`scenario_relationships` (providers live at 1000+i, route
#: servers at 65000+e; 2000+i collides with neither).
_TRANSIT_BASE = 2000


def transit_asn(provider: int) -> int:
    """The declared transit upstream of provider ``provider``."""
    return _TRANSIT_BASE + provider


@dataclass(frozen=True, slots=True)
class AdversaryConfig:
    """One seeded attacker riding on an :class:`ExchangeDayConfig`.

    All fields are primitives, so the config pickles cheaply through
    the parallel driver's worker pipes.  ``victim`` and ``attacker``
    are provider indices; timing is relative to the day's ``settle``.
    """

    kind: str
    victim: int = 1
    attacker: int = 4
    #: Seconds after settle before the first pulse.
    start: float = 120.0
    pulses: int = 5
    #: Seconds between pulse starts (jittered per pulse).
    period: float = 120.0
    #: Announce → withdraw interval within one pulse.
    up_time: float = 45.0
    #: More-specifics per target prefix (subprefix / deagg kinds).
    subnets: int = 2
    subnet_length: int = 26

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            known = ", ".join(ATTACK_KINDS)
            raise SimulationError(
                f"unknown attack kind {self.kind!r} (known: {known})"
            )


def pulse_times(
    config: ExchangeDayConfig, adversary: AdversaryConfig
) -> List[Tuple[float, float]]:
    """The attack timetable: ``(announce_time, withdraw_time)`` per
    pulse, identical at every exchange the attacker attends (a pure
    function of the config, like every flap schedule)."""
    rng = _derive(config.seed, _SALT_ATTACK, adversary.attacker)
    end = config.end_time
    out: List[Tuple[float, float]] = []
    base = config.settle + adversary.start
    for pulse in range(adversary.pulses):
        announce = (
            base
            + pulse * adversary.period
            + rng.uniform(0.0, 0.25 * adversary.period)
        )
        if announce >= end:
            break
        out.append((announce, announce + adversary.up_time))
    return out


def _victim_subnets(
    config: ExchangeDayConfig, adversary: AdversaryConfig, provider: int
) -> List[Prefix]:
    """The first ``subnets`` more-specifics of each of ``provider``'s
    prefixes."""
    out: List[Prefix] = []
    for prefix in config.provider_prefixes(provider):
        out.extend(
            islice(prefix.subnets(adversary.subnet_length), adversary.subnets)
        )
    return out


def attack_targets(
    config: ExchangeDayConfig,
    adversary: AdversaryConfig,
    next_hop: int,
) -> List[Tuple[Prefix, Optional[PathAttributes]]]:
    """What one pulse announces: ``(prefix, attributes)`` pairs.

    ``attributes`` is ``None`` where the attacker originates under its
    own AS (the router's default origination); for leaks and forgeries
    it carries the pre-built propagation path, anchored at ``next_hop``
    (the announcing router's id — export prepends the attacker's ASN
    on top, exactly as a real border router would)."""
    kind = adversary.kind
    victim_asn = 1000 + adversary.victim
    if kind == "hijack_moas":
        return [
            (prefix, None)
            for prefix in config.provider_prefixes(adversary.victim)
        ]
    if kind == "hijack_subprefix":
        return [
            (prefix, None)
            for prefix in _victim_subnets(config, adversary, adversary.victim)
        ]
    if kind == "route_leak":
        leaked = PathAttributes(
            as_path=AsPath((transit_asn(adversary.victim), victim_asn)),
            next_hop=next_hop,
        )
        return [
            (prefix, leaked)
            for prefix in config.provider_prefixes(adversary.victim)
        ]
    if kind == "path_forgery":
        forged = PathAttributes(
            as_path=AsPath((victim_asn,)), next_hop=next_hop
        )
        return [
            (prefix, forged)
            for prefix in config.provider_prefixes(adversary.victim)
        ]
    # deagg_storm: more-specifics of the attacker's own prefixes.
    return [
        (prefix, None)
        for prefix in _victim_subnets(config, adversary, adversary.attacker)
    ]


def install_adversary(
    partition: "ExchangePartition", adversary: AdversaryConfig
) -> int:
    """Schedule the attack pulses on the attacker's router resident at
    ``partition`` (call only where the attacker attends).  Returns the
    number of engine events scheduled.  Pulses touch only the local
    exchange — no cross-partition messages — so the partition's
    ``next_send_bound`` stays exact."""
    config = partition.config
    router = partition.routers[adversary.attacker]
    targets = attack_targets(config, adversary, router.router_id)
    end = config.end_time
    scheduled = 0
    for announce_at, withdraw_at in pulse_times(config, adversary):
        for prefix, attributes in targets:
            partition.engine.schedule_at(
                announce_at, router.originate, prefix, attributes
            )
            scheduled += 1
            if withdraw_at < end:
                partition.engine.schedule_at(
                    withdraw_at, router.withdraw_origin, prefix
                )
                scheduled += 1
    return scheduled


def scenario_relationships(config: ExchangeDayConfig) -> AsRelationships:
    """The declared AS-relationship topology of a day config.

    Every provider has a transit upstream (:func:`transit_asn`); for a
    ``route_leak`` adversary the victim's transit additionally serves
    the attacker — which is exactly what makes the leaked path
    ``victim →(up) transit →(down) attacker →(peer) observer`` a
    declared-but-valley path rather than a forgery."""
    rel = AsRelationships()
    for provider in range(config.providers):
        rel.add_provider(transit_asn(provider), 1000 + provider)
    adversary = config.adversary
    if adversary is not None and adversary.kind == "route_leak":
        rel.add_provider(
            transit_asn(adversary.victim), 1000 + adversary.attacker
        )
    return rel
