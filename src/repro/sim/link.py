"""Links between routers, including the CSU clock-drift oscillation.

A :class:`Link` carries messages between two endpoints with a fixed
propagation delay and an up/down state; when it goes down, in-flight
messages are lost and both endpoints are notified (their interface
cards "are sensitive to millisecond loss of line carrier and will flag
the link as down").  What is in flight is a FIFO of the scheduled
deliveries: a delivery removes its own handle, so the queue holds
exactly the undelivered messages — never a fired or cancelled handle —
and going down loses precisely what is left in it.

:class:`CsuLink` adds the paper's CSU pathology (§4.2): a leased line
whose two Channel Service Units derive their clocks from different
sources drifts in and out of alignment, producing *periodic* carrier
loss.  The resulting up/down cycle has a near-constant period — which
is how physical-layer misconfiguration manufactures the periodic
WADup oscillations the classifier sees.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, List, Optional

from .engine import Engine, EventHandle

__all__ = ["Link", "CsuLink"]


class _Endpoint:
    """One attached side of a link: identity plus delivery/up/down
    callbacks."""

    __slots__ = ("id", "deliver", "on_up", "on_down")

    def __init__(
        self,
        endpoint_id: int,
        deliver: Callable[[int, object], None],
        on_up: Optional[Callable[[], None]],
        on_down: Optional[Callable[[], None]],
    ) -> None:
        self.id = endpoint_id
        self.deliver = deliver
        self.on_up = on_up
        self.on_down = on_down


class Link:
    """A bidirectional point-to-point link.

    Endpoints register ``(deliver, link_up, link_down)`` callback
    triples via :meth:`attach`.  Messages are delivered after
    ``delay`` seconds unless the link drops in the meantime.

    With ``wire=True`` every message is serialized to its RFC 4271
    byte form on send and re-parsed on delivery — full wire fidelity
    inside the simulator (and byte counters for capacity studies), at
    a CPU cost.  The default object-passing mode is semantically
    identical because the codec round-trips exactly (property-tested
    in ``tests/test_wire.py``).  Serialization goes through the
    memoized codec (:func:`repro.bgp.wire.encode_message_cached`):
    table dumps and flap storms re-send identical UPDATEs per peer, so
    repeat encodes are a dict hit.
    """

    __slots__ = (
        "engine",
        "delay",
        "wire",
        "is_up",
        "_endpoints",
        "_in_flight",
        "_encode",
        "_decode",
        "messages_delivered",
        "messages_lost",
        "bytes_carried",
        "down_count",
    )

    def __init__(
        self, engine: Engine, delay: float = 0.01, wire: bool = False
    ) -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.engine = engine
        self.delay = delay
        self.wire = wire
        self.is_up = True
        self._endpoints: List[_Endpoint] = []
        self._in_flight: Deque[EventHandle] = deque()
        if wire:
            from ..bgp.wire import decode_message_cached, encode_message_cached

            self._encode = encode_message_cached
            self._decode = decode_message_cached
        else:
            self._encode = None
            self._decode = None
        self.messages_delivered = 0
        self.messages_lost = 0
        self.bytes_carried = 0
        self.down_count = 0

    def attach(
        self,
        endpoint_id: int,
        deliver: Callable[[int, object], None],
        on_up: Optional[Callable[[], None]] = None,
        on_down: Optional[Callable[[], None]] = None,
    ) -> None:
        """Register an endpoint.  ``deliver(sender_id, message)`` is
        called for traffic addressed to this endpoint."""
        if len(self._endpoints) >= 2:
            raise ValueError("point-to-point link already has two endpoints")
        if any(endpoint.id == endpoint_id for endpoint in self._endpoints):
            raise ValueError(f"endpoint {endpoint_id} already attached to link")
        self._endpoints.append(
            _Endpoint(endpoint_id, deliver, on_up, on_down)
        )

    def send(self, sender_id: int, message: object) -> bool:
        """Transmit ``message`` from ``sender_id`` to the other end.

        Returns False (message lost) when the link is down.
        """
        if not self.is_up:
            self.messages_lost += 1
            return False
        receiver = self._other(sender_id)
        if self.wire:
            message = self._encode(message)
            self.bytes_carried += len(message)
        self._in_flight.append(
            self.engine.schedule(
                self.delay, self._deliver, receiver, sender_id, message
            )
        )
        return True

    def _deliver(
        self, receiver: _Endpoint, sender_id: int, message: object
    ) -> None:
        # The engine marks a handle fired before calling it and every
        # delivery removes its own, so exactly one queued handle is
        # fired: this message's.  A fixed delay delivers in send order,
        # which makes it the head; the search only runs if ``delay``
        # was shortened while messages were in flight.  A delivery only
        # fires on an up link: :meth:`go_down` cancels every handle
        # still in flight.
        in_flight = self._in_flight
        if in_flight[0].fired:
            in_flight.popleft()
        else:
            in_flight.remove(next(h for h in in_flight if h.fired))
        self.messages_delivered += 1
        if self.wire:
            message, _ = self._decode(message)
        receiver.deliver(sender_id, message)

    def _other(self, sender_id: int) -> _Endpoint:
        """The endpoint ``sender_id`` sends to: the other one of
        exactly two, ``sender_id`` being one of them."""
        endpoints = self._endpoints
        if len(endpoints) == 2:
            first, second = endpoints
            if sender_id == first.id:
                return second
            if sender_id == second.id:
                return first
        raise ValueError(f"endpoint {sender_id} not attached to link")

    # -- state changes -----------------------------------------------------

    def go_down(self) -> None:
        """Drop the link: lose in-flight traffic, notify endpoints."""
        if not self.is_up:
            return
        self.is_up = False
        self.down_count += 1
        in_flight = self._in_flight
        self.messages_lost += len(in_flight)
        for handle in in_flight:
            handle.cancel()
        in_flight.clear()
        for endpoint in self._endpoints:
            if endpoint.on_down is not None:
                endpoint.on_down()

    def go_up(self) -> None:
        """Restore the link and notify endpoints."""
        if self.is_up:
            return
        self.is_up = True
        for endpoint in self._endpoints:
            if endpoint.on_up is not None:
                endpoint.on_up()


class CsuLink(Link):
    """A leased line with misconfigured CSU clocking.

    The drift between the two clock sources causes the line to cycle:
    up for ``up_duration`` seconds, then down for ``down_duration``
    while the CSUs re-handshake.  Small multiplicative noise keeps the
    cycle from being perfectly crystalline (real CSUs re-train with
    slightly variable timing) while preserving the dominant period.

    Defaults give a 60-second dominant cycle — one of the two
    periodicities in Figure 8.
    """

    __slots__ = ("up_duration", "down_duration", "noise", "rng", "_oscillating")

    def __init__(
        self,
        engine: Engine,
        delay: float = 0.01,
        up_duration: float = 55.0,
        down_duration: float = 5.0,
        noise: float = 0.02,
        rng: Optional[random.Random] = None,
        start_oscillating: bool = True,
    ) -> None:
        super().__init__(engine, delay)
        if up_duration <= 0 or down_duration <= 0:
            raise ValueError("durations must be positive")
        self.up_duration = up_duration
        self.down_duration = down_duration
        self.noise = noise
        self.rng = rng or random.Random(0)
        self._oscillating = False
        if start_oscillating:
            self.start_oscillating()

    def _noisy(self, duration: float) -> float:
        if self.noise == 0.0:
            return duration
        return duration * self.rng.uniform(1.0 - self.noise, 1.0 + self.noise)

    def start_oscillating(self) -> None:
        """Begin the carrier-loss cycle."""
        if self._oscillating:
            return
        self._oscillating = True
        self.engine.schedule(self._noisy(self.up_duration), self._drop)

    def _drop(self) -> None:
        if not self._oscillating:
            return
        self.go_down()
        self.engine.schedule(self._noisy(self.down_duration), self._recover)

    def _recover(self) -> None:
        self.go_up()
        if self._oscillating:
            self.engine.schedule(self._noisy(self.up_duration), self._drop)
