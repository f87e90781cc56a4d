"""The Routing Arbiter route server: the measurement point.

The paper's data comes from route servers at the exchange points:
Unix machines that "do not forward network traffic" but "peer with the
majority (over 90 percent) of the service providers at each exchange
point" and log every BGP message.

:class:`RouteServer` is a :class:`~repro.sim.router.Router` that

- records every received per-prefix update into a collector sink
  (anything with ``append(UpdateRecord)``), and
- by default does not advertise anything back (its RIB is a passive
  view).  Setting ``readvertise=True`` turns on the real route-server
  function — computing best routes on behalf of clients and sending
  post-policy summaries — which the route-server ablation benchmark
  uses to reproduce the O(N²) → O(N) peering-session argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..bgp.messages import UpdateMessage
from ..bgp.policy import RouteMap
from ..collector.record import SessionEvent, flatten_update
from ..net.prefix import Prefix
from .engine import Engine
from .link import Link
from .router import Router

__all__ = ["RouteServer", "ExchangePoint"]


class RouteServer(Router):
    """A logging route server (see module docstring).

    ``client_policies`` maps a client peer id to the export
    :class:`~repro.bgp.policy.RouteMap` the server evaluates *on that
    client's behalf* — the Routing Arbiter's actual service: "This
    server maintains peering sessions with each exchange point router
    and performs routing table policy computations on behalf of each
    client peer.  The route server transmits a summary of post-policy
    routing table changes to each client peer."  Only consulted in
    ``readvertise`` mode.
    """

    __slots__ = (
        "sink",
        "readvertise",
        "client_policies",
        "records_logged",
        "session_events",
    )

    def __init__(
        self,
        engine: Engine,
        asn: int,
        router_id: int,
        sink=None,
        readvertise: bool = False,
        client_policies: Optional[Dict[int, RouteMap]] = None,
        **kwargs,
    ) -> None:
        # Route servers in 1996 were Unix boxes, not cache-based
        # routers; no cache, generous CPU by default.
        kwargs.setdefault("cpu", None)
        super().__init__(engine, asn, router_id, **kwargs)
        self.sink = sink
        self.readvertise = readvertise
        self.client_policies = dict(client_policies or {})
        self.records_logged = 0
        #: Session FSM transitions observed (for storm forensics);
        #: list of :class:`~repro.collector.record.SessionEvent`.
        self.session_events = []

    def _record_session_event(
        self, peer_id: int, old_state: str, new_state: str
    ) -> None:
        self.session_events.append(
            SessionEvent(
                time=self.engine.now,
                peer_id=peer_id,
                peer_asn=self.peer_asns.get(peer_id, 0),
                old_state=old_state,
                new_state=new_state,
            )
        )

    def _on_session_up(self, peer_id: int) -> None:
        self._record_session_event(peer_id, "OPEN_CONFIRM", "ESTABLISHED")
        super()._on_session_up(peer_id)

    def _on_session_down(self, peer_id: int) -> None:
        self._record_session_event(peer_id, "ESTABLISHED", "IDLE")
        super()._on_session_down(peer_id)

    def _export(self, peer_id: int, prefix: Prefix):
        """Apply the client's own policy on top of the standard export."""
        exported = super()._export(peer_id, prefix)
        if exported is None:
            return None
        policy = self.client_policies.get(peer_id)
        if policy is not None:
            return policy.evaluate(prefix, exported)
        return exported

    def _process_update(self, sender_id: int, message: UpdateMessage) -> None:
        if self.sink is not None:
            peer_asn = self.peer_asns.get(sender_id, 0)
            records = flatten_update(
                self.engine.now, sender_id, peer_asn, message
            )
            for record in records:
                self.sink.append(record)
            self.records_logged += len(records)
        super()._process_update(sender_id, message)

    # A passive route server never advertises; with ``readvertise`` it
    # behaves as a normal (stateful) router.

    def _flush(self, dirty: Set[Prefix]) -> None:
        if self.readvertise:
            super()._flush(dirty)

    def _send_table_dump(self, peer_id: int) -> None:
        if self.readvertise:
            super()._send_table_dump(peer_id)


class ExchangePoint:
    """A simulated public exchange: provider routers, a shared fabric,
    and a Routing Arbiter route server logging to ``sink``.

    The fabric is modelled as point-to-point links (the real FDDI/ATM
    fabrics carried bilateral BGP sessions; the link abstraction per
    peering matches that).  ``full_mesh=True`` adds the O(N²) bilateral
    provider peerings; with False only the provider↔route-server
    sessions exist (the O(N) route-server configuration of §3).  The
    static facts of the five measured exchanges are
    :data:`repro.topology.exchange.EXCHANGE_POINTS`.
    """

    __slots__ = (
        "engine",
        "name",
        "sink",
        "full_mesh",
        "link_delay",
        "route_server",
        "providers",
    )

    def __init__(
        self,
        engine: Engine,
        name: str = "Mae-East",
        sink=None,
        server_asn: int = 65000,
        full_mesh: bool = True,
        link_delay: float = 0.005,
    ) -> None:
        self.engine = engine
        self.name = name
        self.sink = sink
        self.full_mesh = full_mesh
        self.link_delay = link_delay
        self.route_server = RouteServer(
            engine,
            asn=server_asn,
            router_id=(10 << 24) | 0xFFFF,
            sink=sink,
            name=f"{name}-rs",
        )
        self.providers: List[Router] = []

    def attach_provider(self, router: Router, start: bool = True) -> None:
        """Connect a provider border router to the exchange.

        Peers it with the route server and (in full-mesh mode) with all
        previously attached providers.
        """
        server_link = Link(self.engine, delay=self.link_delay)
        router.add_peer(
            self.route_server.router_id, self.route_server.asn, server_link
        )
        self.route_server.add_peer(router.router_id, router.asn, server_link)
        if start:
            router.start_session(self.route_server.router_id)
        if self.full_mesh:
            for other in self.providers:
                link = Link(self.engine, delay=self.link_delay)
                router.add_peer(other.router_id, other.asn, link)
                other.add_peer(router.router_id, router.asn, link)
                if start:
                    router.start_session(other.router_id)
        self.providers.append(router)

    @property
    def session_count(self) -> int:
        """Configured peering sessions (the O(N²) vs O(N) contrast)."""
        n = len(self.providers)
        if self.full_mesh:
            return n + n * (n - 1) // 2
        return n
