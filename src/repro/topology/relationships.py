"""Declared inter-AS business relationships (Gao-Rexford model).

The adversarial scenarios declare the topology their route leaks and
forged paths violate (:func:`repro.sim.adversary.scenario_relationships`),
and the detection tier (:mod:`repro.analysis.detection`) checks observed
AS paths against it.  The simulator builds one without loading the
detection tier's NumPy.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["AsRelationships"]


class AsRelationships:
    """Declared inter-AS business relationships (Gao-Rexford model).

    ``hop(u, v)`` is the direction a route travels when AS ``u``
    exports it to AS ``v``: ``"up"`` (customer to provider), ``"down"``
    (provider to customer), ``"peer"``, or ``None`` for an adjacency
    that does not exist.  :meth:`edges` exports the map as a plain
    dict — the form the dependency-free verify oracle consumes, so the
    two sides provably evaluate the same topology.
    """

    __slots__ = ("_hops",)

    def __init__(self) -> None:
        self._hops: Dict[Tuple[int, int], str] = {}

    def add_provider(self, provider: int, customer: int) -> None:
        """Declare ``provider`` sells transit to ``customer``."""
        self._hops[(customer, provider)] = "up"
        self._hops[(provider, customer)] = "down"

    def add_peer(self, a: int, b: int) -> None:
        self._hops[(a, b)] = "peer"
        self._hops[(b, a)] = "peer"

    def hop(self, u: int, v: int) -> Optional[str]:
        return self._hops.get((u, v))

    def edges(self) -> Dict[Tuple[int, int], str]:
        """A plain ``{(u, v): "up"|"down"|"peer"}`` copy."""
        return dict(self._hops)

    def __len__(self) -> int:
        return len(self._hops)
