"""The route-state digest both tiers pin their per-route state with.

The classifier's carried state (:class:`~repro.core.columns.ColumnClassifier`)
and a simulated router's Adj-RIB-In (:mod:`repro.sim.partition`) are
hashed the same way, so this module imports nothing but the standard
library: the simulator reaches it without loading NumPy.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

__all__ = ["route_state_digest"]


def route_state_digest(
    entries: Iterable[tuple],
) -> str:
    """SHA-256 over normalized per-route classifier state.

    ``entries`` are ``((peer_id, network, length), reachable,
    ever_announced, attribute_tuple or None)``; order does not matter
    (entries are sorted by key here).  Equal states — however they are
    keyed internally — produce equal digests, so the verify layer can
    prove that a stream classified at different batchings carries the
    same state forward, and the simulator's partition digests can pin
    router state the same way.
    """
    digest = hashlib.sha256()
    for key, reachable, ever_announced, attrs in sorted(
        entries, key=lambda entry: entry[0]
    ):
        rendered = "-" if attrs is None else repr(attrs)
        line = (
            f"{key[0]}|{key[1]}|{key[2]}"
            f"|{int(reachable)}|{int(ever_announced)}|{rendered}\n"
        )
        digest.update(line.encode("ascii"))
    return digest.hexdigest()
