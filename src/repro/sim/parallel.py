"""Parallel multi-exchange simulation: one engine per partition,
conservative lookahead, deterministic cross-partition ordering.

The driver runs the :mod:`repro.sim.partition` scenario as a
conservative (CMB-style) parallel discrete-event simulation:

- Each worker process owns a shard of exchange partitions, each built
  on its own :class:`~repro.sim.engine.Engine` (partition construction
  is deterministic in isolation, so workers build their own worlds
  from the config — nothing is pickled but primitives).
- Time advances in barrier-synchronous windows.  The safe horizon is
  ``min over partitions of (next_send_bound) + lookahead`` where the
  lookahead is the minimum inter-exchange latency
  (:func:`repro.sim.partition.min_lookahead`): no partition can be
  influenced by another sooner than that.  Because a partition's sends
  happen only at its pre-derived home-flap instants, the bound is
  *exact*, and windows jump between sparse flaps instead of crawling
  in fixed latency-sized steps (the null-message optimization).
- Cross messages collected at a barrier are routed to their target
  shard at the start of the next window and injected in canonical
  ``(delivery_time, src_exchange, src_seq)`` order, so the injected
  event order is independent of worker count and scheduling noise.
  Conservative windowing guarantees every delivery time lies at or
  beyond the next window start — nothing is ever injected late.
- The finish barrier returns per-partition domain digests through a
  checksum-verified payload (the campaign layer's handoff discipline:
  the parent recomputes the sha256 before trusting worker results).

``workers <= 1`` runs every partition in-process through the same
window loop — the differential tests drive that path against a single
:class:`~repro.sim.refengine.ReferenceEngine` run as the oracle, and
the multi-process path must match it bit-for-bit.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .digests import combined_digest, partition_digest
from .engine import Engine, SimulationError
from .partition import (
    CrossMessage,
    ExchangeDayConfig,
    ExchangePartition,
    OutboxChannel,
    min_lookahead,
)

__all__ = [
    "ParallelDriver",
    "ParallelResult",
    "ParallelSimError",
    "TRANSFERABLE_TYPES",
]

#: Process-boundary contract (CON001): the project types allowed to
#: cross the worker pipes — cross-exchange messages (window barriers)
#: and the day config each worker rebuilds its shard from.  Everything
#: else on the wire is primitives and containers of these.
TRANSFERABLE_TYPES = (CrossMessage, ExchangeDayConfig)


class ParallelSimError(RuntimeError):
    """A worker failed or returned a corrupt payload."""


@dataclass(slots=True, frozen=True)
class ParallelResult:
    """What a partitioned run produced."""

    #: exchange index -> domain digest (see partition_digest).
    digests: Dict[int, str]
    #: Events processed across all partition engines — must equal the
    #: single-engine oracle's count.
    events: int
    windows: int
    workers: int
    lookahead: float

    @property
    def digest(self) -> str:
        """Combined run digest over per-exchange digests in exchange
        order (same computation as the single-engine oracle's)."""
        return combined_digest(self.digests)


def _payload_checksum(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


class _Shard:
    """One worker's world: a private engine running a set of
    partitions, with an outbox channel for cross-exchange sends."""

    __slots__ = ("engine", "channel", "partitions", "by_index")

    def __init__(
        self,
        config: ExchangeDayConfig,
        indices: Tuple[int, ...],
        engine_cls: Callable[[], Any],
    ) -> None:
        self.engine = engine_cls()
        self.channel = OutboxChannel()
        self.partitions: List[ExchangePartition] = []
        self.by_index: Dict[int, ExchangePartition] = {}
        for index in indices:
            partition = ExchangePartition(config, index, self.engine)
            partition.build(self.channel)
            self.partitions.append(partition)
            self.by_index[index] = partition

    def advance(
        self, window_end: float, messages: List[CrossMessage]
    ) -> Tuple[List[CrossMessage], float]:
        """Inject pre-sorted cross messages, run the window, and report
        (outgoing messages, exact next-send lower bound)."""
        engine = self.engine
        for message in messages:
            engine.schedule_at(
                message.delivery_time,
                self.by_index[message.dst_exchange].apply_remote_flap,
                message.provider,
                message.prefix_index,
                message.down_for,
            )
        engine.run_until(window_end)
        bound = min(
            partition.next_send_bound(window_end)
            for partition in self.partitions
        )
        return self.channel.drain(), bound

    def finish(self) -> Tuple[Dict[int, str], int]:
        digests = {
            partition.index: partition_digest(partition)
            for partition in self.partitions
        }
        return digests, self.engine.events_processed


def _worker_main(conn, parent_ends, config, indices, engine_cls) -> None:
    """Worker process loop: build the shard, serve advance/finish.
    A forked worker first closes the parent-side pipe ends it inherited
    (``parent_ends``), so the parent's ``close`` reaches it as EOF."""
    for end in parent_ends:
        end.close()
    try:
        shard = _Shard(config, indices, engine_cls)
        conn.send(("ready", None))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "advance":
                _, window_end, messages = command
                outgoing, bound = shard.advance(window_end, messages)
                conn.send(("ok", (outgoing, bound)))
            elif op == "finish":
                payload = shard.finish()
                conn.send(("done", (payload, _payload_checksum(payload))))
                return
            else:
                conn.send(("error", f"unknown command {op!r}"))
                return
    except EOFError:
        return
    except Exception as exc:  # pragma: no cover - transported to parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
    finally:
        conn.close()


class _LocalPort:
    """In-process stand-in for a worker pipe (workers <= 1): the same
    advance/finish protocol, no processes, no pickling."""

    __slots__ = ("shard", "_reply")

    def __init__(self, config, indices, engine_cls) -> None:
        self.shard = _Shard(config, indices, engine_cls)
        self._reply = None

    def request_advance(self, window_end, messages) -> None:
        self._reply = ("ok", self.shard.advance(window_end, messages))

    def request_finish(self) -> None:
        payload = self.shard.finish()
        self._reply = ("done", (payload, _payload_checksum(payload)))

    def collect(self):
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        self._reply = None


class _RemotePort:
    """A worker process behind a duplex pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, context, config, indices, engine_cls, earlier):
        parent_conn, child_conn = context.Pipe(duplex=True)
        parent_ends = (parent_conn, *(port.conn for port in earlier))
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, parent_ends, config, indices, engine_cls),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn
        status, _ = self._recv()
        if status != "ready":
            raise ParallelSimError(f"worker failed to start: {status}")

    def _recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError) as exc:
            # EOF if the worker exited, ConnectionResetError (an
            # OSError) if it was killed with data still unread.
            raise ParallelSimError("worker died mid-protocol") from exc

    def _send(self, command) -> None:
        try:
            self.conn.send(command)
        except (OSError, ValueError) as exc:
            raise ParallelSimError("worker pipe is gone") from exc

    def request_advance(self, window_end, messages) -> None:
        self._send(("advance", window_end, messages))

    def request_finish(self) -> None:
        self._send(("finish",))

    def collect(self):
        reply = self._recv()
        if reply[0] == "error":
            raise ParallelSimError(f"worker error: {reply[1]}")
        return reply

    def close(self) -> None:
        self.conn.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)


def _mp_context():
    """Prefer fork (cheap, inherits the built config's code pages);
    fall back to spawn elsewhere — the campaign runner's choice."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


class ParallelDriver:
    """Conservative-lookahead parallel driver for the multi-exchange
    day (see module docstring)."""

    __slots__ = (
        "config",
        "workers",
        "lookahead",
        "windows",
        "now",
        "_ports",
        "_routing",
        "_bounds",
        "_pending",
        "_result",
        "_closed",
    )

    def __init__(
        self,
        config: ExchangeDayConfig,
        workers: Optional[int] = None,
        engine_cls: Callable[[], Any] = Engine,
    ) -> None:
        if config.exchanges < 2:
            raise SimulationError(
                "partitioned simulation needs at least 2 exchanges"
            )
        self.config = config
        requested = workers if workers is not None else 1
        self.workers = max(1, min(requested, config.exchanges))
        self.lookahead = min_lookahead(config.exchanges)
        self.windows = 0
        #: Global simulated time (the last window barrier).
        self.now = 0.0
        #: Round-robin partition -> shard assignment (deterministic,
        #: independent of live core count).
        assignment: List[List[int]] = [[] for _ in range(self.workers)]
        for index in range(config.exchanges):
            assignment[index % self.workers].append(index)
        self._routing = {
            index: shard
            for shard, indices in enumerate(assignment)
            for index in indices
        }
        if self.workers <= 1:
            self._ports = [
                _LocalPort(config, tuple(assignment[0]), engine_cls)
            ]
        else:
            context = _mp_context()
            self._ports = []
            for indices in assignment:
                self._ports.append(_RemotePort(
                    context, config, tuple(indices), engine_cls, self._ports
                ))
        #: Per-shard exact next-send lower bounds (unknown until the
        #: first barrier; the first window falls back to now + L).
        self._bounds: List[float] = [0.0] * len(self._ports)
        #: Cross messages collected at the last barrier, awaiting
        #: injection, already in canonical order.
        self._pending: List[CrossMessage] = []
        self._result: Optional[ParallelResult] = None
        self._closed = False

    def run(self) -> None:
        """Run the configured day to completion (totals are reported
        by :meth:`finish`)."""
        self.run_until(self.config.end_time)

    def run_until(self, end_time: float) -> None:
        """Advance the partitioned world (and the window clock) to
        ``end_time`` in conservative windows."""
        if self._result is not None:
            raise SimulationError("driver already finished")
        while self.now < end_time:
            self._advance_window(end_time)

    # -- the window loop ----------------------------------------------------

    def _advance_window(self, end_time: float) -> None:
        """One barrier-synchronous window: route pending messages,
        advance every shard to the safe horizon, collect sends and
        bounds, then move the clock to the barrier."""
        horizon = min(self._bounds) + self.lookahead
        window_end = min(end_time, max(horizon, self.now + self.lookahead))
        outgoing: List[List[CrossMessage]] = [
            [] for _ in range(len(self._ports))
        ]
        for message in self._pending:
            outgoing[self._routing[message.dst_exchange]].append(message)
        self._pending = []
        for port, messages in zip(self._ports, outgoing):
            port.request_advance(window_end, messages)
        collected: List[CrossMessage] = []
        for shard, port in enumerate(self._ports):
            _, (sent, bound) = port.collect()
            collected.extend(sent)
            self._bounds[shard] = bound
        collected.sort(key=lambda m: m.sort_key)
        self._pending = collected
        self.windows += 1
        self.now = window_end

    # -- completion ---------------------------------------------------------

    def finish(self) -> ParallelResult:
        """Collect per-partition digests and event totals (verifying
        the payload checksums), shut the workers down, and return the
        combined result."""
        if self._result is not None:
            return self._result
        digests: Dict[int, str] = {}
        events = 0
        for port in self._ports:
            port.request_finish()
        for port in self._ports:
            status, (payload, checksum) = port.collect()
            if status != "done":
                raise ParallelSimError(f"unexpected finish reply {status}")
            if _payload_checksum(payload) != checksum:
                raise ParallelSimError(
                    "finish payload failed checksum verification"
                )
            shard_digests, shard_events = payload
            digests.update(shard_digests)
            events += shard_events
        self._result = ParallelResult(
            digests=digests,
            events=events,
            windows=self.windows,
            workers=self.workers,
            lookahead=self.lookahead,
        )
        self.close()
        return self._result

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for port in self._ports:
            port.close()

    def __enter__(self) -> "ParallelDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
