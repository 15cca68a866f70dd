"""The asyncio embedding server: engine state machines behind a socket.

One :class:`EmbeddingServer` is a pure *transport*: it owns sockets, queues,
and backpressure, while every embedding decision lives in the
transport-agnostic :class:`~repro.engine.core.EmbeddingEngine` — one per
served substrate network, held by that shard's
:class:`~repro.engine.tick.ShardTick` together with its optional standby.
The server keeps one ``network_id`` → shard map and holds **no** solver,
ledger, or repair logic of its own, and no phase order either: every engine
effect runs inside :meth:`~repro.engine.tick.ShardTick.step`, the same step
offline replay (:func:`repro.sim.trace.replay`) drives, so offline replay ≡
service decisions holds by construction.

Architecture (single-writer per shard, explicit backpressure)::

    connections ──screen──▶ shard queue ──▶ shard dispatcher ──▶ step thread
        ▲                                       │ ShardTick.step (sole writer)
        └──────────── replies (by msg_id) ◀─────┘

* Every connection handler only *screens* (draining / duplicate / queue
  bound) and enqueues; structured rejections are produced instead of
  blocking or crashing when the bounded queue is full.
* One dispatcher task per shard is the sole mutator of that shard's engine.
  Per cycle it pulls a **micro-batch** (up to ``batch_size`` submits plus
  the releases, faults and rebalance requests queued with them) and runs it
  as one step in a worker thread: releases → faults → submits in arrival
  order → rebalance cycles → WAL sync. Each submit is solved
  (:func:`solve_on_view`) on the residual view the previous commit left,
  then committed before the next one is solved.
* Replies and repair notifications go out only after the step returns, so
  with a WAL every acknowledged or notified effect is already fsynced.

Sharding: the server may serve several independent substrates at once
(protocol v2); ``submit``/``release`` carry an optional ``network_id``,
messages without one land on the default shard. Shards are fully isolated —
separate queues, dispatchers, engines, and degraded-queue state, so a fault
(or a drained queue) on one shard never degrades another.

Shard time: each dispatcher just awaits its queue, and each batch that
carries engine work is one step of the shard's step clock
(:attr:`ShardTick.now <repro.engine.tick.ShardTick.now>`); an idle shard's
time stands still. ``fault_script`` replays fail/recover events on one
shard (``chaos_network_id``) in the step that reaches each event's time;
repairs run inside the step, a degraded shard solves on the degraded view
and tightens admission (``degraded`` sheds), and repair outcomes are pushed
to the submitter as ``notify`` lines. ``rebalance`` runs one guarded
:class:`~repro.engine.rebalance.Rebalancer` cycle every ``interval`` steps,
paused under faults and never while draining (see ``docs/rebalancing.md``).
``standby`` folds every WAL sync into the shard's warm standby. Standby
polls, promotions and barriers stay in the dispatcher, outside the step.
With none configured the decision path stays bit-identical.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..embedding.base import EmbeddingResult
from ..engine import (
    DEFAULT_NETWORK_ID,
    ENGINE_COUNTER_KEYS,
    Decision,
    EmbeddingEngine,
    RebalanceConfig,
    RepairAction,
    RepairOutcome,
    ReservationLedger,
    ShardTick,
    StandbyEngine,
    advertised_vnf_types,
    shard_wal_path,
)
from ..exceptions import ConfigurationError, WalError
from ..faults.model import FaultEvent, FaultScript
from ..network.cloud import CloudNetwork
from ..utils.stats import p50_p95_max
from . import protocol
from .protocol import MAX_LINE_BYTES, SubmitIntent

__all__ = ["ServiceConfig", "EmbeddingServer", "solve_on_view"]


def solve_on_view(
    engine: EmbeddingEngine, intent: SubmitIntent, view: CloudNetwork, seed: int
) -> EmbeddingResult:
    """Solve one submit on ``view`` with the engine's solver.

    The dispatcher looks this module global up for every batch and hands
    it to the shard step, which calls it once per submit in the worker
    thread, so a tracer can wrap it to time each solve.
    """
    return engine.solve(intent, view=view, rng=seed)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`EmbeddingServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (bound port reported by start())
    solver: str = "MBBE"
    #: bound on queued-but-undecided submits *per shard*; beyond it, reject
    #: queue_full.
    queue_limit: int = 64
    #: max submits decided per dispatch cycle (the micro-batch).
    batch_size: int = 8
    #: master seed for server-derived solver streams.
    seed: int = 0
    #: fail/recover events replayed on one shard; an event's time is a
    #: step of that shard's step clock.
    fault_script: FaultScript | None = None
    #: the shard the fault script targets (None = the default shard).
    chaos_network_id: str | None = None
    #: while a shard is degraded, its effective submit-queue bound shrinks to
    #: ``max(1, int(queue_limit * degraded_queue_factor))``; excess sheds
    #: with the structured code ``degraded``.
    degraded_queue_factor: float = 0.5
    #: directory holding one write-ahead log per shard (None = WAL off).
    #: With a WAL, every commit/release/fault is fsynced *before* its reply
    #: is sent, so an acknowledged decision survives a process kill, and
    #: the ``snapshot`` verb appends a checkpoint to every shard's log.
    wal_dir: str | None = None
    #: keep a warm standby per shard, tailing that shard's log, promotable
    #: via the ``promote`` verb. Requires ``wal_dir``.
    standby: bool = False
    #: background rebalance cycles (guarded live migration) per shard, every
    #: ``rebalance.interval`` steps; None = none (the ``rebalance`` verb
    #: then uses the default :class:`RebalanceConfig`). Off by default: the
    #: fault-free decision path stays bit-identical.
    rebalance: RebalanceConfig | None = None

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ConfigurationError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 < self.degraded_queue_factor <= 1.0):
            raise ConfigurationError(
                "degraded_queue_factor must be in (0, 1], got "
                f"{self.degraded_queue_factor}"
            )
        if self.standby and not self.wal_dir:
            raise ConfigurationError("standby=True requires wal_dir")


@dataclass
class _PendingSubmit:
    intent: SubmitIntent
    reply: "asyncio.Future[dict[str, Any]]" = field(compare=False)
    #: the submitting connection, kept so repair notifications can reach it.
    writer: "asyncio.StreamWriter | None" = field(default=None, compare=False)
    lock: "asyncio.Lock | None" = field(default=None, compare=False)


@dataclass
class _PendingRelease:
    msg_id: int
    request_id: int
    reply: "asyncio.Future[dict[str, Any]]" = field(compare=False)


@dataclass
class _PendingFault:
    """An injected fault event for one shard (no reply — nobody waits)."""

    event: FaultEvent


@dataclass
class _PendingBarrier:
    """Resolves ``reached`` once everything queued before it is applied.

    A drain waits on ``reached`` alone. A hold also passes ``release``:
    the dispatcher then stays parked until it is set, so a checkpoint thread
    can read every engine while the event loop stays responsive.
    """

    reached: "asyncio.Future[None]" = field(compare=False)
    release: "asyncio.Event | None" = field(default=None, compare=False)


@dataclass
class _PendingPromote:
    """A standby-promotion request for one shard (operator fail-over drill)."""

    msg_id: int
    reply: "asyncio.Future[dict[str, Any]]" = field(compare=False)


@dataclass
class _PendingRebalance:
    """One on-demand rebalance cycle (the ``rebalance`` verb)."""

    msg_id: int
    reply: "asyncio.Future[dict[str, Any]]" = field(compare=False)


#: Every item kind a shard's dispatcher queue carries.
_Pending = (
    _PendingSubmit | _PendingRelease | _PendingFault
    | _PendingBarrier | _PendingPromote | _PendingRebalance
)
#: The kinds that carry engine work: a batch holding any of them is a step.
_STEP_KINDS = (_PendingSubmit, _PendingRelease, _PendingFault, _PendingRebalance)


#: Counters the transport maintains per shard; the engine owns the rest
#: (:data:`~repro.engine.core.ENGINE_COUNTER_KEYS`).
_TRANSPORT_COUNTER_KEYS = (
    "submitted",
    "shed_queue_full",
    "shed_duplicate",
    "shed_draining",
    "shed_degraded",
)

#: The full per-shard counter vocabulary, in the historical wire order.
_COUNTER_KEYS = _TRANSPORT_COUNTER_KEYS + ENGINE_COUNTER_KEYS


class _Shard:
    """One served substrate: its shard tick plus this transport's bookkeeping."""

    def __init__(self, network_id: str, tick: ShardTick) -> None:
        self.network_id = network_id
        self.tick = tick
        self.n_vnf_types = advertised_vnf_types(tick.engine.network)
        self.queue: asyncio.Queue[_Pending] = asyncio.Queue()
        self.queued_submits = 0
        self.pending_ids: set[int] = set()
        self.arrival_counter = 0
        self.counters: dict[str, float] = {key: 0 for key in _TRANSPORT_COUNTER_KEYS}
        self.notify_routes: dict[int, tuple[asyncio.StreamWriter, asyncio.Lock]] = {}
        self.dispatch_task: asyncio.Task[None] | None = None

    @property
    def engine(self) -> EmbeddingEngine:
        """The shard's current primary (follows promotions)."""
        return self.tick.engine

    def restore_counters(self, counters: Mapping[str, float]) -> None:
        """Rehydrate the transport counters from a checkpoint's leftovers."""
        for key, value in counters.items():
            if key in self.counters:
                self.counters[key] = int(value)

    def wire_counters(self) -> dict[str, float]:
        """Transport + engine counters merged, in the historical key order."""
        merged = {**self.counters, **self.engine.counters}
        return {key: merged[key] for key in _COUNTER_KEYS}


class EmbeddingServer:
    """A long-running embedding service over one or more substrate networks."""

    def __init__(
        self,
        network: CloudNetwork | Mapping[str, CloudNetwork | EmbeddingEngine],
        config: ServiceConfig | None = None,
        *,
        n_vnf_types: int | None = None,
        transport_counters: Mapping[str, Mapping[str, float]] | None = None,
    ) -> None:
        """Serve one network, or a ``network_id`` → network mapping.

        A mapping's values may also be engines (``restore_shards`` output);
        its first key is the default shard.
        """
        self.config = config if config is not None else ServiceConfig()
        targets: Mapping[str, CloudNetwork | EmbeddingEngine] = (
            network if isinstance(network, Mapping) else {DEFAULT_NETWORK_ID: network}
        )
        if not targets:
            raise ConfigurationError("a server needs at least one network")
        for network_id in targets:
            if not network_id or not isinstance(network_id, str):
                raise ConfigurationError(
                    f"network ids must be non-empty strings, got {network_id!r}"
                )
        chaos_id = self.config.chaos_network_id or next(iter(targets))
        if chaos_id not in targets:
            raise ConfigurationError(
                f"chaos_network_id {chaos_id!r} is not a served shard "
                f"({', '.join(targets)})"
            )
        #: the one ``network_id`` → shard map; the first entry is the default.
        self._shards: dict[str, _Shard] = {
            network_id: _Shard(
                network_id,
                ShardTick(
                    (
                        target
                        if isinstance(target, EmbeddingEngine)
                        else EmbeddingEngine(target, self.config.solver, seed=self.config.seed)
                    ),
                    fault_script=(
                        self.config.fault_script if network_id == chaos_id else None
                    ),
                    rebalance=self.config.rebalance,
                ),
            )
            for network_id, target in targets.items()
        }
        #: catalog size advertised in the hello for the default shard (drives
        #: client trace generation); per-shard sizes ride in the shard list.
        if n_vnf_types is not None:
            self._default_shard().n_vnf_types = n_vnf_types
        if transport_counters:
            for network_id, shard_counters in transport_counters.items():
                self._shard(network_id).restore_counters(shard_counters)
        self._draining = False
        self._stop_event = asyncio.Event()
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._server: asyncio.Server | None = None
        self._address: tuple[str, int] | None = None
        self._chaos_shard = self._shards[chaos_id]

    # -- shard resolution -------------------------------------------------------------

    def _default_shard(self) -> _Shard:
        return next(iter(self._shards.values()))

    def _shard(self, network_id: str | None) -> _Shard:
        """The shard a message addresses (None = the default); raises on unknown ids."""
        if network_id is None:
            return self._default_shard()
        try:
            return self._shards[network_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown network_id {network_id!r}; serving: "
                f"{', '.join(self._shards)}"
            ) from None

    def shard_tick(self, network_id: str | None = None) -> ShardTick:
        """A shard's tick (None = the default shard): its engine and standby."""
        return self._shard(network_id).tick

    @property
    def n_vnf_types(self) -> int:
        """Catalog size advertised for the default shard."""
        return self._default_shard().n_vnf_types

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the socket and start the dispatchers; returns (host, port)."""
        if self._server is not None:
            raise ConfigurationError("server is already started")
        if self.config.wal_dir is not None:
            # Blocking file IO (open/fsync per shard log) stays off the loop.
            await asyncio.to_thread(self._setup_wal)
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=MAX_LINE_BYTES,
        )
        for shard in self._shards.values():
            shard.dispatch_task = asyncio.create_task(self._dispatch_loop(shard))
        sock = self._server.sockets[0].getsockname()
        self._address = (str(sock[0]), int(sock[1]))
        return self._address

    async def serve_until_stopped(self) -> None:
        """Block until a drain-with-shutdown (or :meth:`request_stop`)."""
        await self._stop_event.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Ask :meth:`serve_until_stopped` to return."""
        self._stop_event.set()

    async def stop(self) -> None:
        """Stop accepting connections and tear the dispatchers down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Python 3.11's Server.wait_closed does not wait for client handler
        # tasks; reap them explicitly so shutdown leaves no stray tasks.
        for task in tuple(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True)
        self._conn_tasks.clear()
        for shard in self._shards.values():
            if shard.dispatch_task is not None:
                shard.dispatch_task.cancel()
                try:
                    await shard.dispatch_task
                except asyncio.CancelledError:
                    pass
                shard.dispatch_task = None
            self._flush_queue(shard)
        if self.config.wal_dir is not None:
            # Sync + close every shard log off the loop; anything never
            # acknowledged may land in a torn tail, which recovery truncates.
            await asyncio.to_thread(self._close_wals)
        self._stop_event.set()

    def _flush_queue(self, shard: _Shard) -> None:
        """Fail anything still queued so connection handlers can't wait forever."""
        while True:
            try:
                item = shard.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if isinstance(item, _PendingSubmit):
                shard.queued_submits -= 1
                shard.pending_ids.discard(item.intent.request_id)
                item.reply.set_result(
                    self._reject(
                        item.intent.msg_id,
                        item.intent.request_id,
                        "draining",
                        "server stopped before the request was decided",
                    )
                )
            elif isinstance(item, _PendingRelease):
                item.reply.set_result(
                    {
                        "type": "released",
                        "msg_id": item.msg_id,
                        "request_id": item.request_id,
                        "ok": False,
                        "reason": "server stopped before the release was applied",
                    }
                )
            elif isinstance(item, _PendingBarrier):
                if not item.reached.done():
                    item.reached.set_result(None)
            elif isinstance(item, (_PendingPromote, _PendingRebalance)):
                verb = "promotion" if isinstance(item, _PendingPromote) else "rebalance cycle"
                item.reply.set_result(
                    {
                        "type": "error",
                        "msg_id": item.msg_id,
                        "reason": f"server stopped before the {verb} ran",
                    }
                )
            # _PendingFault items have no waiter: dropped with the server.

    # -- durability (write-ahead logs + warm standbys) ---------------------------------

    def _setup_wal(self) -> None:
        """Attach one log per shard; optionally seed the warm standbys.

        Runs in a worker thread before the dispatchers start (so the
        open/fsync of each log header never blocks the loop, and no engine
        is concurrently mutated). Appends only buffer in memory:
        the dispatcher owns the fsync cadence, batching one sync per decision
        cycle and acknowledging only after it.
        """
        wal_dir = self.config.wal_dir
        assert wal_dir is not None
        os.makedirs(wal_dir, exist_ok=True)
        for network_id, shard in self._shards.items():
            path = shard_wal_path(wal_dir, network_id)
            shard.engine.attach_wal_file(path, network_id=network_id)
            if not self.config.standby:
                continue
            standby = StandbyEngine(
                shard.engine.network,
                self.config.solver,
                path,
                seed=self.config.seed,
            )
            if standby.ledger_fingerprint() != shard.engine.ledger_fingerprint():
                raise ConfigurationError(
                    f"standby for shard {network_id!r} diverges from its primary "
                    "at startup; resume the server from its log "
                    "(serve --resume --wal --standby)"
                )
            shard.tick.standby = standby

    def _close_wals(self) -> None:
        """Detach (sync + close) every shard's writer; thread-side."""
        for shard in self._shards.values():
            shard.engine.detach_wal()

    async def __aenter__(self) -> "EmbeddingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    # -- introspection ----------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._address is None:
            raise ConfigurationError("server is not started")
        return self._address

    @property
    def ledger(self) -> ReservationLedger:
        """The default shard's authoritative ledger (single-network callers)."""
        return self._default_shard().engine.ledger

    @property
    def queue_depth(self) -> int:
        """Submits queued but not yet decided, across every shard."""
        return sum(shard.queued_submits for shard in self._shards.values())

    @property
    def degraded(self) -> bool:
        """True while any shard's substrate has a dead element."""
        return any(shard.engine.degraded for shard in self._shards.values())

    def inject_fault(self, event: FaultEvent, network_id: str | None = None) -> None:
        """Queue one ad-hoc fault event on a shard (tests and operator tooling)."""
        self._shard(network_id).queue.put_nowait(_PendingFault(event=event))

    def _shard_payload(self, shard: _Shard) -> dict[str, Any]:
        """One shard's stats body (its engine's gauges + transport counters)."""
        engine_stats = shard.engine.stats()
        wal = shard.engine.wal
        standby = shard.tick.standby
        return {
            "network_id": shard.network_id,
            "counters": shard.wire_counters(),
            "acceptance_ratio": engine_stats["acceptance_ratio"],
            "active": engine_stats["active"],
            "queue_depth": shard.queued_submits,
            "faults": engine_stats["faults"],
            "ledger_fingerprint": shard.engine.ledger_fingerprint(),
            "wal": (
                {"seq": wal.seq, "pending": wal.pending_count}
                if wal is not None
                else None
            ),
            "standby": (
                {"applied_seq": standby.applied_seq} if standby is not None else None
            ),
            "rebalance": shard.tick.rebalancer.stats(),
        }

    def stats_payload(self) -> dict[str, Any]:
        """The body of a ``stats`` reply: cross-shard aggregate + per-shard split."""
        shards = {
            network_id: self._shard_payload(shard)
            for network_id, shard in self._shards.items()
        }
        merged: dict[str, float] = {key: 0 for key in _COUNTER_KEYS}
        dead_nodes = dead_links = dead_instances = tracked = 0
        for payload in shards.values():
            for key in _COUNTER_KEYS:
                merged[key] += payload["counters"][key]
            dead_nodes += payload["faults"]["dead_nodes"]
            dead_links += payload["faults"]["dead_links"]
            dead_instances += payload["faults"]["dead_instances"]
            tracked += payload["faults"]["tracked_embeddings"]
        accepted = merged["accepted"]
        dispatched = merged["dispatched"]
        return {
            "solver": self.config.solver,
            "counters": merged,
            "acceptance_ratio": accepted / dispatched if dispatched else 1.0,
            "active": sum(payload["active"] for payload in shards.values()),
            "queue_depth": self.queue_depth,
            "draining": self._draining,
            "faults": {
                "degraded": self.degraded,
                "chaos_complete": self._chaos_shard.tick.chaos_complete,
                "dead_nodes": dead_nodes,
                "dead_links": dead_links,
                "dead_instances": dead_instances,
                "tracked_embeddings": tracked,
                "repair_time_s": p50_p95_max(
                    t for shard in self._shards.values() for t in shard.engine.repair_times()
                ),
            },
            "network_ids": list(self._shards),
            "shards": shards,
        }

    # -- connection handling ------------------------------------------------------------

    def _hello(self) -> dict[str, Any]:
        default = self._default_shard()
        return protocol.hello_message(
            solver=self.config.solver,
            n_nodes=default.engine.network.num_nodes,
            n_vnf_types=default.n_vnf_types,
            network_fingerprint=default.engine.fingerprint,
            shards=[
                {
                    "network_id": shard.network_id,
                    "n_nodes": shard.engine.network.num_nodes,
                    "n_vnf_types": shard.n_vnf_types,
                    "network_fingerprint": shard.engine.fingerprint,
                }
                for shard in self._shards.values()
            ],
            default_network_id=default.network_id,
        )

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        current = asyncio.current_task()
        if current is not None:
            self._conn_tasks.add(current)
            current.add_done_callback(self._conn_tasks.discard)
        lock = asyncio.Lock()
        tasks: set[asyncio.Task[None]] = set()
        try:
            await protocol.write_message(writer, self._hello())
            while True:
                try:
                    message = await protocol.read_message(reader)
                except protocol.ProtocolError as exc:
                    await self._write_locked(
                        writer, lock, {"type": "error", "msg_id": 0, "reason": str(exc)}
                    )
                    break
                if message is None:
                    break
                task = asyncio.create_task(self._handle_message(message, writer, lock))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Server shutdown with the connection still open: end quietly
            # (asyncio.streams' connection_made callback chokes on handler
            # tasks that finish cancelled).
            pass
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write_locked(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, message: dict[str, Any]
    ) -> None:
        try:
            async with lock:
                await protocol.write_message(writer, message)
        except (ConnectionError, OSError):
            # The peer went away; its admitted work stays admitted (the
            # reservation is released by a later `release` or an operator).
            pass

    async def _handle_message(
        self, message: dict[str, Any], writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        msg_id = int(message.get("msg_id", 0) or 0)
        mtype = message["type"]
        try:
            if mtype == "submit":
                reply = await self._handle_submit(message, writer, lock)
            elif mtype == "release":
                reply = await self._handle_release(message)
            elif mtype == "stats":
                stats = await self._read_held(self.stats_payload)
                reply = {"type": "stats", "msg_id": msg_id, **stats}
            elif mtype == "snapshot":
                reply = await self._handle_snapshot(msg_id)
            elif mtype == "drain":
                reply = await self._handle_drain(message)
            elif mtype == "promote":
                reply = await self._handle_promote(message)
            elif mtype == "rebalance":
                reply = await self._handle_rebalance(message)
            else:
                reply = {
                    "type": "error",
                    "msg_id": msg_id,
                    "reason": f"unknown message type {mtype!r}",
                }
        except protocol.ProtocolError as exc:
            reply = {"type": "error", "msg_id": msg_id, "reason": str(exc)}
        shutdown = bool(reply.pop("_shutdown", False))
        await self._write_locked(writer, lock, reply)
        if shutdown:
            self.request_stop()

    # -- submit path ----------------------------------------------------------------

    def _reject(
        self, msg_id: int, request_id: int, code: str, reason: str
    ) -> dict[str, Any]:
        return {
            "type": "rejected",
            "msg_id": msg_id,
            "request_id": request_id,
            "code": code,
            "reason": reason,
        }

    async def _handle_submit(
        self,
        message: dict[str, Any],
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> dict[str, Any]:
        intent = protocol.submit_from_message(message)
        try:
            shard = self._shard(protocol.network_id_of(message))
        except ConfigurationError as exc:
            # Not counted against any shard: the message never reached one.
            return self._reject(
                intent.msg_id, intent.request_id, "unknown_network", str(exc)
            )
        shard.counters["submitted"] += 1
        if self._draining:
            shard.counters["shed_draining"] += 1
            return self._reject(
                intent.msg_id, intent.request_id, "draining", "server is draining"
            )
        if shard.engine.is_active(intent.request_id) or intent.request_id in shard.pending_ids:
            shard.counters["shed_duplicate"] += 1
            return self._reject(
                intent.msg_id,
                intent.request_id,
                "duplicate_id",
                f"request id {intent.request_id} is already active or queued",
            )
        if shard.engine.degraded:
            # Active faults on this shard: solver time is being spent on
            # repairs, so shed earlier (with a retryable, self-describing code).
            limit = max(
                1, int(self.config.queue_limit * self.config.degraded_queue_factor)
            )
            if shard.queued_submits >= limit:
                shard.counters["shed_degraded"] += 1
                return self._reject(
                    intent.msg_id,
                    intent.request_id,
                    "degraded",
                    "admission tightened under active faults "
                    f"(queue {shard.queued_submits}/{limit})",
                )
        if shard.queued_submits >= self.config.queue_limit:
            shard.counters["shed_queue_full"] += 1
            return self._reject(
                intent.msg_id,
                intent.request_id,
                "queue_full",
                f"submit queue is at its limit ({self.config.queue_limit})",
            )
        intent = dataclasses.replace(intent, arrival_index=shard.arrival_counter)
        shard.arrival_counter += 1
        shard.queued_submits += 1
        shard.pending_ids.add(intent.request_id)
        pending = _PendingSubmit(
            intent=intent,
            reply=asyncio.get_running_loop().create_future(),
            writer=writer,
            lock=lock,
        )
        shard.queue.put_nowait(pending)
        return await pending.reply

    async def _handle_release(self, message: dict[str, Any]) -> dict[str, Any]:
        try:
            msg_id = int(message.get("msg_id", 0))
            request_id = int(message["request_id"])
        except (KeyError, TypeError, ValueError) as exc:
            raise protocol.ProtocolError(f"malformed release: {exc}") from None
        try:
            shard = self._shard(protocol.network_id_of(message))
        except ConfigurationError as exc:
            return {
                "type": "released",
                "msg_id": msg_id,
                "request_id": request_id,
                "ok": False,
                "reason": str(exc),
            }
        pending = _PendingRelease(
            msg_id=msg_id,
            request_id=request_id,
            reply=asyncio.get_running_loop().create_future(),
        )
        shard.queue.put_nowait(pending)
        return await pending.reply

    async def _handle_snapshot(self, msg_id: int) -> dict[str, Any]:
        if self.config.wal_dir is None:
            return {
                "type": "error",
                "msg_id": msg_id,
                "reason": "server was started without a write-ahead log",
            }
        release = asyncio.Event()
        try:
            # Every dispatcher parks at a hold barrier, so no engine changes
            # while the checkpoint thread reads it, yet other connections keep
            # submitting; their work just queues behind the hold.
            await self._barrier(release)
            checkpoints = await asyncio.to_thread(self._checkpoint_shards)
        finally:
            release.set()
        return {
            "type": "snapshotted",
            "msg_id": msg_id,
            "active": sum(shard.engine.active_count() for shard in self._shards.values()),
            "checkpoints": checkpoints,
        }

    def _checkpoint_shards(self) -> dict[str, int]:
        """Checkpoint every shard into its own log; thread-side."""
        return {
            network_id: shard.engine.checkpoint(shard.counters)
            for network_id, shard in self._shards.items()
        }

    async def _barrier(self, release: asyncio.Event | None = None) -> None:
        """Queue one barrier per shard; return once every shard reached it."""
        loop = asyncio.get_running_loop()
        reached: list[asyncio.Future[None]] = []
        for shard in self._shards.values():
            future: asyncio.Future[None] = loop.create_future()
            shard.queue.put_nowait(_PendingBarrier(reached=future, release=release))
            reached.append(future)
        await asyncio.gather(*reached)

    async def _read_held(self, read: Callable[[], dict[str, Any]]) -> dict[str, Any]:
        """``read()`` on the event loop while every dispatcher parks at a hold.

        A step thread may be mid-commit at any moment; the hold barrier
        lets ``read`` see each engine between steps, never during one.
        """
        release = asyncio.Event()
        try:
            await self._barrier(release)
            return read()
        finally:
            release.set()

    async def _handle_drain(self, message: dict[str, Any]) -> dict[str, Any]:
        msg_id = int(message.get("msg_id", 0) or 0)
        shutdown = bool(message.get("shutdown", False))
        self._draining = True
        for shard in self._shards.values():
            shard.tick.draining = True
        # One barrier per shard: the reply reflects every item that was
        # queued anywhere before the drain arrived.
        reply: dict[str, Any] = {
            "type": "drained",
            "msg_id": msg_id,
            **await self._read_held(self.stats_payload),
        }
        if shutdown:
            reply["_shutdown"] = True
        return reply

    # -- dispatcher (sole writer of its shard's engine) ----------------------------------

    async def _dispatch_loop(self, shard: _Shard) -> None:
        while True:
            item: _Pending = await shard.queue.get()
            batch: defaultdict[type, list[Any]] = defaultdict(list)
            batch[type(item)].append(item)
            while len(batch[_PendingSubmit]) < self.config.batch_size and not shard.queue.empty():
                item = shard.queue.get_nowait()
                batch[type(item)].append(item)
            # Only engine work makes a step: the shard's clock never moves
            # for barriers and promotions alone.
            if any(batch[kind] for kind in _STEP_KINDS):
                await self._run_step(shard, batch)

            for promote in batch[_PendingPromote]:
                await self._do_promote(shard, promote)

            # Barriers come last, with the cycle fully applied; a hold parks
            # the dispatcher here so its holder reads a settled engine.
            for barrier in batch[_PendingBarrier]:
                if not barrier.reached.done():
                    barrier.reached.set_result(None)
                if barrier.release is not None:
                    await barrier.release.wait()

    async def _run_step(self, shard: _Shard, batch: Mapping[type, list[Any]]) -> None:
        """Run one batch as one shard step, then notify and acknowledge.

        Every engine effect happens inside the step, which ends with the
        WAL sync; notifications and replies go out only after it returns,
        so a client never holds an acknowledgement or a repair notice
        that a restore would not reproduce.
        """
        submits: list[_PendingSubmit] = batch[_PendingSubmit]
        releases: list[_PendingRelease] = batch[_PendingRelease]
        rebalances: list[_PendingRebalance] = batch[_PendingRebalance]
        tick = shard.tick
        engine = shard.engine
        result = await asyncio.to_thread(
            tick.step,
            [pending.request_id for pending in releases],
            [pending.event for pending in batch[_PendingFault]],
            [(pending.intent, engine.solve_seed(pending.intent)) for pending in submits],
            len(rebalances),
            solve=solve_on_view,
        )
        replies: list[tuple[asyncio.Future[dict[str, Any]], dict[str, Any]]] = []
        for release, error in zip(releases, result.released):
            reply = {
                "type": "released",
                "msg_id": release.msg_id,
                "request_id": release.request_id,
                "ok": error is None,
            }
            if error is None:
                shard.notify_routes.pop(release.request_id, None)
            else:
                reply["reason"] = str(error)
            replies.append((release.reply, reply))
        for outcome in result.repairs:
            await self._notify_repair(shard, outcome)
        for pending, decision in zip(submits, result.decisions):
            if decision.accepted and pending.writer is not None and pending.lock is not None:
                shard.notify_routes[decision.request_id] = (pending.writer, pending.lock)
            shard.queued_submits -= 1
            shard.pending_ids.discard(decision.request_id)
            replies.append((pending.reply, self._decision_reply(decision)))
        for pending, (report, stats) in zip(rebalances, result.cycles):
            reply = {
                "type": "rebalanced",
                "msg_id": pending.msg_id,
                "network_id": shard.network_id,
                "cycle": report.to_dict(),
                "rebalance": stats,
            }
            replies.append((pending.reply, reply))
        for future, reply in replies:
            if not future.done():
                future.set_result(reply)
        # Standby catch-up after the acks (it never delays a reply) and
        # before any promotion (the two never overlap on one log).
        if result.synced and tick.standby is not None:
            await asyncio.to_thread(tick.standby.poll)

    # -- promotion and rebalancing (dispatcher-only, like every engine mutation) ---------

    async def _handle_promote(self, message: dict[str, Any]) -> dict[str, Any]:
        msg_id = int(message.get("msg_id", 0) or 0)
        try:
            shard = self._shard(protocol.network_id_of(message))
        except ConfigurationError as exc:
            return {"type": "error", "msg_id": msg_id, "reason": str(exc)}
        if shard.tick.standby is None:
            return {
                "type": "error",
                "msg_id": msg_id,
                "reason": f"shard {shard.network_id!r} has no standby attached",
            }
        pending = _PendingPromote(
            msg_id=msg_id, reply=asyncio.get_running_loop().create_future()
        )
        shard.queue.put_nowait(pending)
        return await pending.reply

    async def _do_promote(self, shard: _Shard, pending: _PendingPromote) -> None:
        """Swap the shard's engine for its caught-up standby (fail-over drill).

        Runs inside the dispatcher between batches, so the swap can never
        race a decision or a standby poll: the old primary's writer is
        abandoned, the standby folds in the last records and resumes the
        same log, and the shard serves its next batch from the promoted
        engine.
        """
        try:
            engine = await asyncio.to_thread(shard.tick.promote)
        except (ConfigurationError, WalError) as exc:
            pending.reply.set_result(
                {"type": "error", "msg_id": pending.msg_id, "reason": str(exc)}
            )
            return
        pending.reply.set_result(
            {
                "type": "promoted",
                "msg_id": pending.msg_id,
                "network_id": shard.network_id,
                "applied_seq": engine.wal_applied_seq,
                "ledger_fingerprint": engine.ledger_fingerprint(),
                "active": engine.active_count(),
            }
        )

    async def _handle_rebalance(self, message: dict[str, Any]) -> dict[str, Any]:
        msg_id = int(message.get("msg_id", 0) or 0)
        try:
            shard = self._shard(protocol.network_id_of(message))
        except ConfigurationError as exc:
            return {"type": "error", "msg_id": msg_id, "reason": str(exc)}
        if bool(message.get("inspect", False)):
            # Inspection never enqueues a cycle: report the shard's totals.
            return {
                "type": "rebalanced",
                "msg_id": msg_id,
                "network_id": shard.network_id,
                "cycle": None,
                "rebalance": await self._read_held(lambda: shard.tick.rebalancer.stats()),
            }
        pending = _PendingRebalance(
            msg_id=msg_id, reply=asyncio.get_running_loop().create_future()
        )
        shard.queue.put_nowait(pending)
        return await pending.reply

    async def _notify_repair(self, shard: _Shard, outcome: RepairOutcome) -> None:
        """Push one repair outcome to the submitting peer (engine did the books)."""
        route = shard.notify_routes.get(outcome.request_id)
        if outcome.action is RepairAction.EVICTED:
            shard.notify_routes.pop(outcome.request_id, None)
        if route is not None:
            writer, lock = route
            await self._write_locked(
                writer,
                lock,
                protocol.notify_message(
                    request_id=outcome.request_id,
                    status=outcome.action.value,
                    detail=outcome.detail,
                    old_cost=outcome.old_cost,
                    new_cost=outcome.new_cost,
                    network_id=shard.network_id,
                ),
            )

    # -- decisions ----------------------------------------------------------------------

    def _decision_reply(self, decision: Decision) -> dict[str, Any]:
        """Format one engine verdict as its wire reply."""
        if decision.accepted:
            return {
                "type": "accepted",
                "msg_id": decision.msg_id,
                "request_id": decision.request_id,
                "total_cost": decision.total_cost,
                "vnf_cost": decision.vnf_cost,
                "link_cost": decision.link_cost,
                "runtime": decision.runtime,
                "decision_index": decision.decision_index,
                "commit_index": decision.commit_index,
            }
        reply = self._reject(
            decision.msg_id,
            decision.request_id,
            decision.code or "no_solution",
            decision.reason or "no feasible embedding",
        )
        reply["decision_index"] = decision.decision_index
        return reply
