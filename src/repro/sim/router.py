"""The BGP border router model.

This is where the paper's §4.2 mechanisms live:

**Stateless vs stateful BGP.**  A *stateful* router keeps an Adj-RIB-Out
per peer and suppresses redundant output: it never withdraws a prefix
it did not advertise to that peer, and never re-sends an identical
announcement.  The paper's problem vendor shipped *stateless* BGP —
"a time-space tradeoff implementation decision... not to maintain state
on the information advertised to the router's BGP peers.  Upon receipt
of any topology change, these routers will transmit withdrawals to all
BGP peers regardless of whether they had previously sent the peer an
announcement" — the WWDup factory.  Set ``stateless_bgp=True`` to get
that behaviour.

**The 30-second interval timer.**  Outbound changes are batched by a
:class:`~repro.sim.timers.MraiBatcher`; at flush time the router
advertises the *current* table state for each dirty prefix.  An
A1→A2→A1 oscillation inside one interval therefore emits a duplicate
announcement from a stateless router (AADup), and W→A→W emits a
repeated withdrawal (WWDup) — the paper's conjectured genesis of both
pathologies.  ``mrai_jitter=0`` reproduces the unjittered vendor timer.

**The CPU / keepalive coupling.**  All message processing and
transmission passes through a serial CPU-work queue.  Under an update
storm the queue backs up, keepalive transmissions are delayed past the
peer's hold timer, sessions drop, peers withdraw and re-announce — the
route-flap-storm feedback loop.  A configurable queue-depth limit
crashes the router outright, reproducing the paper's informal
300-updates/second crash experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..bgp.attributes import AsPath, PathAttributes, interned
from ..bgp.damping import RouteFlapDamper
from ..bgp.fsm import SessionState
from ..bgp.messages import (
    KeepAliveMessage,
    NotificationMessage,
    OpenMessage,
    UpdateMessage,
)
from ..bgp.policy import RouteMap
from ..bgp.rib import AdjRibOut, ChangeKind, LocRib, RibChange
from ..bgp.session import ActionKind, PeeringSession, SessionAction
from ..net.prefix import Prefix
from .engine import Engine, EventHandle
from .link import Link
from .timers import DEFAULT_MRAI, MraiBatcher

__all__ = ["Router", "CpuModel", "RouteCache", "connect"]

#: Pseudo-peer id for locally-originated routes.
LOCAL_PEER = 0


@dataclass(slots=True)
class CpuModel:
    """Per-operation CPU costs (seconds) for the serial work queue.

    Defaults are scaled to the paper's era: a light 68000-class
    processor spending on the order of a millisecond per prefix update,
    so a burst of a few hundred updates per second saturates it.
    """

    per_update: float = 0.002         #: processing one received prefix event
    per_sent_update: float = 0.001    #: marshalling one outbound prefix event
    per_keepalive: float = 0.0005
    per_policy_term: float = 0.0002   #: each route-map term evaluated
    per_dump_route: float = 0.001     #: table-dump marshalling per route


@dataclass(slots=True)
class RouteCache:
    """A route-caching line card (§3 of the paper).

    Forwarding lookups hit the cache; route changes invalidate entries.
    The lookup itself (hit, miss, FIFO eviction at ``capacity``) is
    :class:`~repro.sim.trafficgen.ForwardingWorkload`'s, which charges
    each miss to the router's CPU.
    Under instability the cache churns, lookups miss, and misses cost
    router CPU — the mechanism behind instability-induced packet loss
    on cache-based architectures.  Modern "full table in forwarding
    memory" routers are modelled by simply not attaching a cache.
    """

    capacity: int = 10000
    entries: Dict[Prefix, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    def invalidate(self, prefix: Prefix) -> None:
        if self.entries.pop(prefix, None) is not None:
            self.invalidations += 1


class Router:
    """A BGP border router attached to a simulation engine.

    Parameters
    ----------
    engine:
        The event engine.
    asn, router_id:
        AS number and unique 32-bit identifier (also used as the
        NEXT_HOP it advertises).
    stateless_bgp:
        True reproduces the paper's pathological vendor implementation.
    mrai_interval, mrai_jitter, mrai_phase:
        The outbound batching timer.  ``jitter=0`` is the unjittered
        vendor timer; the conventional fix is ``jitter=0.25``.
    hold_time:
        Session hold time (keepalives at a third of it).
    cpu:
        CPU cost model; None disables CPU accounting (infinite speed).
    cache:
        Optional route-caching line card.
    damper:
        Optional route-flap damper applied to received routes.
    crash_queue_limit:
        CPU work-queue depth that crashes the router (None = never).
    reboot_delay:
        Seconds a crashed router stays dark before rebooting.
    keepalive_priority:
        The modern-router fix: "BGP traffic is given a higher priority
        and Keep-Alive messages persist even under heavy instability."
        When True keepalive transmission bypasses the CPU queue.
    """

    __slots__ = (
        "engine",
        "asn",
        "router_id",
        "name",
        "stateless_bgp",
        "hold_time",
        "cpu",
        "cache",
        "damper",
        "import_policy",
        "export_policy",
        "crash_queue_limit",
        "reboot_delay",
        "restart_delay",
        "keepalive_priority",
        "rng",
        "loc_rib",
        "adj_out",
        "sessions",
        "links",
        "peer_asns",
        "_origins",
        "_suppressed",
        "_wakeups",
        "_aggregates",
        "batcher",
        "crashed",
        "crash_count",
        "_busy_until",
        "_queue_depth",
        "_reuse_poll_armed",
        "updates_received",
        "updates_sent",
        "announcements_sent",
        "withdrawals_sent",
        "keepalives_sent",
        "suppressed_outputs",
    )

    def __init__(
        self,
        engine: Engine,
        asn: int,
        router_id: int,
        stateless_bgp: bool = False,
        mrai_interval: float = DEFAULT_MRAI,
        mrai_jitter: float = 0.0,
        mrai_phase: float = 0.0,
        hold_time: float = 90.0,
        cpu: Optional[CpuModel] = None,
        cache: Optional[RouteCache] = None,
        damper: Optional[RouteFlapDamper] = None,
        import_policy: Optional[RouteMap] = None,
        export_policy: Optional[RouteMap] = None,
        crash_queue_limit: Optional[int] = None,
        reboot_delay: float = 60.0,
        restart_delay: float = 5.0,
        keepalive_priority: bool = False,
        rng: Optional[random.Random] = None,
        name: str = "",
    ) -> None:
        self.engine = engine
        self.asn = asn
        self.router_id = router_id
        self.name = name or f"AS{asn}/{router_id}"
        self.stateless_bgp = stateless_bgp
        self.hold_time = hold_time
        self.cpu = cpu
        self.cache = cache
        self.damper = damper
        self.import_policy = import_policy
        self.export_policy = export_policy
        self.crash_queue_limit = crash_queue_limit
        self.reboot_delay = reboot_delay
        self.restart_delay = restart_delay
        self.keepalive_priority = keepalive_priority
        self.rng = rng or random.Random(router_id)
        self._reuse_poll_armed = False

        self.loc_rib = LocRib()
        self.adj_out = AdjRibOut()
        self.sessions: Dict[int, PeeringSession] = {}
        self.links: Dict[int, Link] = {}
        self.peer_asns: Dict[int, int] = {}
        self._origins: Dict[Prefix, PathAttributes] = {}
        self._suppressed: Dict[Tuple[Prefix, int], PathAttributes] = {}
        #: peer id -> the wakeup armed last (``time`` is its instant);
        #: one that has fired is re-armed in place.
        self._wakeups: Dict[int, EventHandle] = {}
        #: configured CIDR aggregates: supernet -> reachable members
        self._aggregates: Dict[Prefix, Set[Prefix]] = {}

        self.batcher = MraiBatcher(
            engine,
            self._flush,
            interval=mrai_interval,
            jitter=mrai_jitter,
            rng=self.rng,
            phase=mrai_phase,
        )
        self.batcher.start()

        self.crashed = False
        self.crash_count = 0
        self._busy_until = 0.0
        self._queue_depth = 0

        # Counters used by benchmarks and diagnostics.
        self.updates_received = 0
        self.updates_sent = 0
        self.announcements_sent = 0
        self.withdrawals_sent = 0
        self.keepalives_sent = 0
        self.suppressed_outputs = 0     # stateful suppression savings

    # ------------------------------------------------------------------
    # topology wiring
    # ------------------------------------------------------------------

    def add_peer(self, peer_id: int, peer_asn: int, link: Link) -> None:
        """Register a peer reachable over ``link`` (does not start the
        session — call :meth:`start_session`)."""
        self.links[peer_id] = link
        self.peer_asns[peer_id] = peer_asn
        self.sessions[peer_id] = PeeringSession(
            local_asn=self.asn,
            peer_asn=peer_asn,
            hold_time=self.hold_time,
            local_id=self.router_id,
        )
        link.attach(
            self.router_id,
            deliver=self._on_link_message,
            on_up=lambda p=peer_id: self._on_link_up(p),
            on_down=lambda p=peer_id: self._on_link_down(p),
        )

    def start_session(self, peer_id: int) -> None:
        """Initiate the BGP session toward ``peer_id``."""
        if self.crashed:
            return
        session = self.sessions[peer_id]
        if session.is_established:
            return
        now = self.engine.now
        self._run_actions(peer_id, session.start(now))
        self._schedule_session_wakeup(peer_id, now)

    # ------------------------------------------------------------------
    # route origination (the customer-facing edge)
    # ------------------------------------------------------------------

    def originate(
        self, prefix: Prefix, attributes: Optional[PathAttributes] = None
    ) -> None:
        """Originate ``prefix`` locally (an attached customer network)."""
        attrs = attributes or PathAttributes(
            as_path=AsPath(), next_hop=self.router_id
        )
        self._origins[prefix] = attrs
        change = self.loc_rib.apply_announce(LOCAL_PEER, prefix, attrs)
        self._note_change(change)

    def withdraw_origin(self, prefix: Prefix) -> None:
        """Stop originating ``prefix`` (customer circuit down)."""
        self._origins.pop(prefix, None)
        change = self.loc_rib.apply_withdraw(LOCAL_PEER, prefix)
        self._note_change(change)

    def flap_origin(self, prefix: Prefix, down_for: float = 1.0) -> None:
        """Convenience fault: withdraw then re-originate after
        ``down_for`` seconds — one customer-circuit flap."""
        attrs = self._origins.get(prefix)
        if attrs is None:
            return
        self.withdraw_origin(prefix)
        self.engine.schedule(down_for, self.originate, prefix, attrs)

    @property
    def originated(self) -> List[Prefix]:
        return list(self._origins)

    # ------------------------------------------------------------------
    # CIDR aggregation (the paper's central countermeasure)
    # ------------------------------------------------------------------

    def configure_aggregate(self, supernet: Prefix) -> None:
        """Announce ``supernet`` in place of its component routes.

        The paper (§4.1): "an autonomous system will maintain a path to
        an aggregate supernet prefix as long as a path to one or more
        of the component prefixes is available.  This effectively
        limits the visibility of instability stemming from unstable
        customer circuits or routers to the scope of a single
        autonomous system."  Components covered by the supernet are
        never exported; the supernet is advertised while at least one
        component is reachable in the Loc-RIB, and carries the
        ATOMIC_AGGREGATE / AGGREGATOR attributes.
        """
        members = {
            prefix
            for prefix in self.loc_rib.prefixes()
            if supernet.covers(prefix)
        }
        self._aggregates[supernet] = members
        self.batcher.mark_dirty(supernet)

    def _covering_aggregate(self, prefix: Prefix) -> Optional[Prefix]:
        for supernet in self._aggregates:
            if supernet != prefix and supernet.covers(prefix):
                return supernet
        return None

    def _aggregate_attributes(self, supernet: Prefix) -> PathAttributes:
        return PathAttributes(
            as_path=AsPath((self.asn,)),
            next_hop=self.router_id,
            atomic_aggregate=True,
            aggregator=(self.asn, self.router_id),
        )

    # ------------------------------------------------------------------
    # CPU work queue
    # ------------------------------------------------------------------

    def _cpu_submit(self, cost: float, fn: Callable, *args, units: int = 1) -> None:
        """Run ``fn(*args)`` after queuing behind current CPU work.

        ``units`` sizes the work for the crash-limit check (prefix
        updates queue as one work item but count individually, matching
        the paper's updates-per-second framing of router overload).
        """
        if self.crashed:
            return
        if self.cpu is None or cost <= 0.0:
            fn(*args)
            return
        now = self.engine.now
        start = max(now, self._busy_until)
        finish = start + cost
        self._busy_until = finish
        self._queue_depth += units
        if (
            self.crash_queue_limit is not None
            and self._queue_depth > self.crash_queue_limit
        ):
            self._crash()
            return
        self.engine.schedule_at(finish, self._cpu_complete, fn, args, units)

    def _cpu_complete(self, fn: Callable, args: tuple, units: int) -> None:
        self._queue_depth = max(0, self._queue_depth - units)
        if self.crashed:
            return
        fn(*args)

    @property
    def cpu_backlog(self) -> float:
        """Seconds of queued CPU work."""
        return max(0.0, self._busy_until - self.engine.now)

    # ------------------------------------------------------------------
    # crash / reboot
    # ------------------------------------------------------------------

    def _crash(self) -> None:
        """Total failure: unresponsive until reboot (the paper's
        definition of *crash*)."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        self.batcher.stop()
        self._queue_depth = 0
        self._busy_until = self.engine.now
        # Sessions die silently; peers find out via their hold timers.
        for session in self.sessions.values():
            if session.fsm.is_established:
                session.fsm.drop_count += 1
            session.fsm.reset()
        self.engine.schedule(self.reboot_delay, self._reboot)

    def _reboot(self) -> None:
        self.crashed = False
        # Rebuild from scratch: only originated routes survive.
        self.loc_rib = LocRib()
        self.adj_out = AdjRibOut()
        for prefix, attrs in self._origins.items():
            self.loc_rib.apply_announce(LOCAL_PEER, prefix, attrs)
        self.batcher.start()
        for peer_id, session in self.sessions.items():
            self.sessions[peer_id] = PeeringSession(
                local_asn=self.asn,
                peer_asn=session.peer_asn,
                hold_time=self.hold_time,
                local_id=self.router_id,
            )
            if self.links[peer_id].is_up:
                self.start_session(peer_id)

    # ------------------------------------------------------------------
    # link and session events
    # ------------------------------------------------------------------

    def _on_link_down(self, peer_id: int) -> None:
        session = self.sessions[peer_id]
        self._run_actions(peer_id, session.on_transport_failure(self.engine.now))

    def _on_link_up(self, peer_id: int) -> None:
        if self.crashed:
            return
        # Re-peer shortly after carrier returns.
        delay = self.restart_delay * self.rng.uniform(0.5, 1.5)
        self.engine.schedule(delay, self.start_session, peer_id)

    def _schedule_session_wakeup(self, peer_id: int, now: float) -> None:
        """Arm the session's next wakeup; ``now`` is the clock the
        calling handler read (the clock stands still inside one)."""
        deadline = self.sessions[peer_id].next_deadline()
        if deadline is None:
            return
        engine = self.engine
        if deadline <= now:
            return
        armed = self._wakeups.get(peer_id)
        if armed is None:
            self._wakeups[peer_id] = engine.schedule_at(
                deadline, self._session_wakeup, peer_id
            )
        elif not now < armed.time <= deadline:
            # No earlier-or-equal wakeup is still pending.  From inside
            # the armed wakeup itself (the keepalive rhythm) this
            # re-arms its own handle; otherwise ``reschedule`` leaves
            # the pending one alone and queues a fresh one.
            self._wakeups[peer_id] = engine.reschedule(armed, deadline)

    def _session_wakeup(self, peer_id: int) -> None:
        if self.crashed:
            return
        now = self.engine.now
        actions = self.sessions[peer_id].poll(now)
        if actions:
            self._run_actions(peer_id, actions)
        self._schedule_session_wakeup(peer_id, now)

    def _run_actions(self, peer_id: int, actions: List[SessionAction]) -> None:
        for action in actions:
            kind = action.kind
            if kind is ActionKind.SEND_KEEPALIVE:
                self.keepalives_sent += 1
                cpu = self.cpu
                if self.keepalive_priority:
                    # Keepalives bypass the CPU queue entirely, so they
                    # persist under update storms (the vendors' fix).
                    self._transmit(peer_id, action.message)
                elif cpu is None or cpu.per_keepalive <= 0.0:
                    # What ``_cpu_submit`` does with free work.
                    if not self.crashed:
                        self._transmit(peer_id, action.message)
                else:
                    self._cpu_submit(
                        cpu.per_keepalive,
                        self._transmit,
                        peer_id,
                        action.message,
                    )
            elif kind is ActionKind.SEND_OPEN:
                self._transmit(peer_id, action.message)
            elif kind is ActionKind.SEND_NOTIFICATION:
                self._transmit(peer_id, action.message)
            elif kind is ActionKind.SESSION_UP:
                self._on_session_up(peer_id)
            elif kind is ActionKind.SESSION_DOWN:
                self._on_session_down(peer_id)
            elif kind is ActionKind.RESTART:
                if self.links[peer_id].is_up:
                    delay = self.restart_delay * self.rng.uniform(0.5, 1.5)
                    self.engine.schedule(delay, self.start_session, peer_id)

    def _on_session_up(self, peer_id: int) -> None:
        """Session established: send the full-table dump."""
        routes = self.loc_rib.routes()
        dump_cost = (
            self.cpu.per_dump_route * len(routes) if self.cpu else 0.0
        )
        self._cpu_submit(dump_cost, self._send_table_dump, peer_id)

    def _send_table_dump(self, peer_id: int) -> None:
        session = self.sessions.get(peer_id)
        if session is None or not session.is_established:
            return
        dump_prefixes = [
            route.prefix
            for route in self.loc_rib.routes()
            if route.peer != peer_id
        ]
        dump_prefixes.extend(self._aggregates)
        for prefix in dump_prefixes:
            exported = self._export(peer_id, prefix)
            if exported is None:
                continue
            self._send_update(
                peer_id,
                UpdateMessage(announced=(prefix,), attributes=exported),
            )
            if not self.stateless_bgp:
                self.adj_out.record_announce(peer_id, prefix, exported)

    def _on_session_down(self, peer_id: int) -> None:
        """Session lost: drop everything learned from the peer."""
        changes = self.loc_rib.drop_peer(peer_id)
        self.adj_out.drop_peer(peer_id)
        for change in changes:
            self._note_change(change)

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def _on_link_message(self, sender_id: int, message: object) -> None:
        if self.crashed:
            return
        if isinstance(message, KeepAliveMessage):
            cpu = self.cpu
            if cpu is None or cpu.per_keepalive <= 0.0:
                # What ``_cpu_submit`` does with free work.
                self._process_keepalive(sender_id)
            else:
                self._cpu_submit(
                    cpu.per_keepalive, self._process_keepalive, sender_id
                )
        elif isinstance(message, UpdateMessage):
            cost = (
                self.cpu.per_update * max(1, message.prefix_update_count)
                if self.cpu
                else 0.0
            )
            self._cpu_submit(
                cost,
                self._process_update,
                sender_id,
                message,
                units=max(1, message.prefix_update_count),
            )
        elif isinstance(message, OpenMessage):
            self._process_open(sender_id, message)
        elif isinstance(message, NotificationMessage):
            self._process_notification(sender_id, message)

    def _process_open(self, sender_id: int, message: OpenMessage) -> None:
        session = self.sessions.get(sender_id)
        if session is None:
            return
        now = self.engine.now
        if session.fsm.state is SessionState.IDLE:
            # Passive open: the peer initiated; come up ourselves,
            # including transmitting our own OPEN back.
            self._run_actions(sender_id, session.start(now))
        self._run_actions(sender_id, session.on_open(now, message))
        self._schedule_session_wakeup(sender_id, now)

    def _process_keepalive(self, sender_id: int) -> None:
        session = self.sessions.get(sender_id)
        if session is None or session.fsm.state is SessionState.IDLE:
            return
        now = self.engine.now
        actions = session.on_keepalive(now)
        if actions:
            self._run_actions(sender_id, actions)
        # Establishment arms the keepalive timer, which is sooner than
        # the hold deadline the current wakeup targets.
        self._schedule_session_wakeup(sender_id, now)

    def _process_notification(
        self, sender_id: int, message: NotificationMessage
    ) -> None:
        session = self.sessions.get(sender_id)
        if session is None or session.fsm.state is SessionState.IDLE:
            return
        self._run_actions(
            sender_id, session.on_notification(self.engine.now, message)
        )

    def _process_update(self, sender_id: int, message: UpdateMessage) -> None:
        session = self.sessions.get(sender_id)
        if session is None or not session.is_established:
            return
        now = self.engine.now
        session.on_update(now, message)
        self.updates_received += message.prefix_update_count
        for prefix in message.withdrawn:
            if self.damper is not None:
                self.damper.on_withdrawal(prefix, sender_id, now)
            change = self.loc_rib.apply_withdraw(sender_id, prefix)
            self._note_change(change)
        if message.announced:
            attrs = message.attributes
            # Loop detection: drop updates carrying our own AS.
            if attrs.as_path.contains_loop(self.asn):
                return
            for prefix in message.announced:
                self._receive_announcement(sender_id, prefix, attrs, now)

    def _receive_announcement(
        self, sender_id: int, prefix: Prefix, attrs: PathAttributes,
        now: float,
    ) -> None:
        accepted = attrs
        if self.import_policy is not None:
            cost = (
                self.cpu.per_policy_term * len(self.import_policy)
                if self.cpu
                else 0.0
            )
            # Policy cost is charged but evaluation is immediate —
            # splitting it further adds nothing the analyses see.
            self._busy_until = max(self._busy_until, now) + cost
            evaluated = self.import_policy.evaluate(prefix, attrs)
            if evaluated is None:
                # Denied: equivalent to a withdrawal of any prior route.
                change = self.loc_rib.apply_withdraw(sender_id, prefix)
                self._note_change(change)
                return
            accepted = evaluated
        if self.damper is not None:
            previous = self.loc_rib.adj_in.routes_from(sender_id).get(prefix)
            if previous is not None and previous != accepted:
                self.damper.on_attribute_change(prefix, sender_id, now)
            suppressed = self.damper.on_readvertisement(prefix, sender_id, now)
            if suppressed:
                # Hold the route aside; reinstated when reusable.
                self._suppressed[(prefix, sender_id)] = accepted
                self._ensure_reuse_poll()
                return
        change = self.loc_rib.apply_announce(sender_id, prefix, accepted)
        self._note_change(change)

    # -- damping reuse polling --------------------------------------------

    def _ensure_reuse_poll(self) -> None:
        if not self._reuse_poll_armed:
            self._reuse_poll_armed = True
            self.engine.schedule(10.0, self._reuse_poll)

    def _reuse_poll(self) -> None:
        self._reuse_poll_armed = False
        if self.damper is None or self.crashed:
            return
        now = self.engine.now
        for key in self.damper.reusable(now):
            held = self._suppressed.pop(key, None)
            if held is not None:
                prefix, peer = key
                change = self.loc_rib.apply_announce(peer, prefix, held)
                self._note_change(change)
        if self._suppressed:
            self._ensure_reuse_poll()

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def _note_change(self, change: RibChange) -> None:
        """React to a Loc-RIB change: invalidate cache, mark dirty.

        Changes to a component of a configured aggregate stay inside
        the AS: only the aggregate's own reachability transition (last
        member gone / first member back) becomes externally visible.
        """
        if change.kind is ChangeKind.NONE:
            return
        if self.cache is not None:
            self.cache.invalidate(change.prefix)
        supernet = self._covering_aggregate(change.prefix)
        if supernet is not None:
            members = self._aggregates[supernet]
            had_members = bool(members)
            if change.kind is ChangeKind.WITHDRAW:
                members.discard(change.prefix)
            else:
                members.add(change.prefix)
            if bool(members) != had_members:
                # The aggregate's reachability flipped.
                self.batcher.mark_dirty(supernet)
            return
        self.batcher.mark_dirty(change.prefix)

    def _export(
        self, peer_id: int, prefix: Prefix
    ) -> Optional[PathAttributes]:
        """The attributes we would advertise to ``peer_id`` for the
        current best route, or None if nothing/denied."""
        if prefix in self._aggregates:
            # The aggregate is reachable while any member is.
            if not self._aggregates[prefix]:
                return None
            exported = self._aggregate_attributes(prefix)
            if self.export_policy is not None:
                exported = self.export_policy.evaluate(prefix, exported)
            return None if exported is None else interned(exported)
        if self._covering_aggregate(prefix) is not None:
            return None  # components stay inside the AS
        best = self.loc_rib.best(prefix)
        if best is None or best.peer == peer_id:
            return None
        exported = best.attributes.exported_by(
            self.asn, next_hop=self.router_id
        )
        if self.export_policy is not None:
            exported = self.export_policy.evaluate(prefix, exported)
        return None if exported is None else interned(exported)

    def _flush(self, dirty: Set[Prefix]) -> None:
        """MRAI expiry: advertise current state of dirty prefixes."""
        if self.crashed:
            return
        for peer_id, session in self.sessions.items():
            if not session.is_established:
                continue
            announce_groups: Dict[PathAttributes, List[Prefix]] = {}
            withdrawals: List[Prefix] = []
            # Sorted so the NLRI order inside emitted UPDATEs is
            # canonical rather than set-iteration order (DET003).
            for prefix in sorted(dirty):
                exported = self._export(peer_id, prefix)
                if exported is None:
                    if self.stateless_bgp:
                        # Withdraw everywhere, advertised or not.
                        withdrawals.append(prefix)
                    elif self.adj_out.record_withdraw(peer_id, prefix):
                        withdrawals.append(prefix)
                    else:
                        self.suppressed_outputs += 1
                else:
                    if not self.stateless_bgp:
                        already = self.adj_out.advertised(peer_id, prefix)
                        if already == exported:
                            self.suppressed_outputs += 1
                            continue
                        self.adj_out.record_announce(peer_id, prefix, exported)
                    announce_groups.setdefault(exported, []).append(prefix)
            messages: List[UpdateMessage] = []
            if withdrawals:
                messages.append(UpdateMessage(withdrawn=tuple(sorted(withdrawals))))
            for attrs, prefixes in announce_groups.items():
                messages.append(
                    UpdateMessage(
                        announced=tuple(sorted(prefixes)), attributes=attrs
                    )
                )
            for message in messages:
                self._send_update(peer_id, message)

    def _send_update(self, peer_id: int, message: UpdateMessage) -> None:
        cost = (
            self.cpu.per_sent_update * max(1, message.prefix_update_count)
            if self.cpu
            else 0.0
        )
        self.updates_sent += message.prefix_update_count
        self.announcements_sent += len(message.announced)
        self.withdrawals_sent += len(message.withdrawn)
        session = self.sessions.get(peer_id)
        if session is not None:
            session.sent_updates += message.prefix_update_count
        self._cpu_submit(cost, self._transmit, peer_id, message)

    def _transmit(self, peer_id: int, message: object) -> None:
        link = self.links.get(peer_id)
        if link is not None:
            link.send(self.router_id, message)


def connect(
    a: Router,
    b: Router,
    link: Optional[Link] = None,
    start: bool = True,
) -> Link:
    """Wire two routers together over ``link`` (a fresh low-latency
    :class:`Link` by default) and optionally start the session from
    ``a``'s side."""
    if link is None:
        link = Link(a.engine, delay=0.01)
    a.add_peer(b.router_id, b.asn, link)
    b.add_peer(a.router_id, a.asn, link)
    if start:
        a.start_session(b.router_id)
    return link
