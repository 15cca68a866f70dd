"""Async client for the embedding service.

One :class:`ServiceClient` multiplexes any number of in-flight requests
over a single TCP connection: every outgoing message carries a fresh
``msg_id``, a background reader task routes each reply to the matching
awaiting caller, so ``submit`` calls can be fired concurrently (that is
what the load generator does) and resolved out of order as the server's
micro-batching reorders decisions.

Two failure/notification channels matter under faults:

* a broken transport (reset, EOF mid-request, failed write) surfaces as
  :class:`~repro.exceptions.ServiceUnavailable` on every in-flight call and
  on every later one, so a caller never waits on a dead connection;
* unsolicited server pushes (``type: "notify"`` — repair/eviction events
  for this connection's accepted requests) land in :attr:`notifications`
  instead of being dropped.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any

from ..exceptions import ProtocolError, ServiceError, ServiceUnavailable
from ..sfc.dag import DagSfc
from . import protocol

__all__ = ["SubmitOutcome", "ServiceClient"]


@dataclass(frozen=True)
class SubmitOutcome:
    """The client-side record of one decided submission."""

    request_id: int
    accepted: bool
    #: objective value when accepted, ``None`` otherwise.
    total_cost: float | None
    #: structured rejection code (:data:`repro.service.protocol.REJECT_CODES`).
    code: str | None
    reason: str | None
    #: server-global decision sequence number (absent for queue-level sheds).
    decision_index: int | None
    #: commit order among accepted requests (absent when rejected).
    commit_index: int | None
    #: client-observed submit→reply latency in seconds.
    latency: float

    @classmethod
    def from_reply(cls, reply: dict[str, Any], latency: float) -> "SubmitOutcome":
        if reply.get("type") == "accepted":
            return cls(
                request_id=int(reply["request_id"]),
                accepted=True,
                total_cost=float(reply["total_cost"]),
                code=None,
                reason=None,
                decision_index=int(reply["decision_index"]),
                commit_index=int(reply["commit_index"]),
                latency=latency,
            )
        if reply.get("type") == "rejected":
            decision = reply.get("decision_index")
            return cls(
                request_id=int(reply["request_id"]),
                accepted=False,
                total_cost=None,
                code=str(reply.get("code")),
                reason=str(reply.get("reason")),
                decision_index=None if decision is None else int(decision),
                commit_index=None,
                latency=latency,
            )
        raise ProtocolError(f"unexpected submit reply type {reply.get('type')!r}")


class ServiceClient:
    """An asyncio JSON-lines client; create via :meth:`connect`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict[str, Any],
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.hello = hello
        self._next_msg_id = 1
        self._pending: dict[int, asyncio.Future[dict[str, Any]]] = {}
        self._write_lock = asyncio.Lock()
        #: unsolicited server pushes (``type: "notify"``), in arrival order.
        self.notifications: asyncio.Queue[dict[str, Any]] = asyncio.Queue()
        self._reader_task = asyncio.create_task(self._read_loop())

    # -- lifecycle ------------------------------------------------------------------

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        """Open a connection and validate the server's hello banner."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        hello = await protocol.read_message(reader)
        if hello is None:
            raise ProtocolError("server closed the connection before its hello")
        protocol.check_hello(hello)
        return cls(reader, writer, hello)

    async def close(self) -> None:
        """Close the connection and cancel the reader task."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(ServiceUnavailable("connection closed"))

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    # -- request/reply plumbing -----------------------------------------------------

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await protocol.read_message(self._reader)
                if message is None:
                    # EOF with requests still in flight is a transport
                    # failure, not a reply: surface the typed error.
                    self._fail_pending(
                        ServiceUnavailable("server closed the connection")
                    )
                    return
                if message.get("type") == "notify":
                    self.notifications.put_nowait(message)
                    continue
                future = self._pending.pop(int(message.get("msg_id", 0) or 0), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except ProtocolError as exc:
            self._fail_pending(ServiceError(f"protocol violation: {exc}"))
        except (ConnectionError, OSError) as exc:
            self._fail_pending(ServiceUnavailable(f"connection lost: {exc}"))

    async def _request(self, message: dict[str, Any]) -> dict[str, Any]:
        if self._reader_task.done():
            # The read loop is gone (EOF or reset already observed): a new
            # request could never be answered, so fail it immediately
            # instead of parking a future nothing will resolve.
            raise ServiceUnavailable("connection is closed")
        msg_id = int(message["msg_id"])
        future: asyncio.Future[dict[str, Any]] = asyncio.get_running_loop().create_future()
        self._pending[msg_id] = future
        try:
            async with self._write_lock:
                await protocol.write_message(self._writer, message)
        except (ConnectionError, OSError) as exc:
            self._pending.pop(msg_id, None)
            raise ServiceUnavailable(f"write failed: {exc}") from exc
        return await future

    def _msg_id(self) -> int:
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        return msg_id

    # -- verbs ----------------------------------------------------------------------

    async def submit(
        self,
        request_id: int,
        dag: DagSfc,
        source: int,
        dest: int,
        *,
        rate: float = 1.0,
        seed: int | None = None,
        network_id: str | None = None,
        constraints: Any = None,
    ) -> SubmitOutcome:
        """Submit one embedding request; returns the structured outcome.

        ``network_id`` addresses one shard of a sharded server; omitted, the
        request lands on the default shard. ``constraints`` (a
        :class:`~repro.constraints.base.ConstraintSet` or a list of specs)
        attaches operator rules; omitted, the field never hits the wire.
        """
        start = time.perf_counter()
        reply = await self._request(
            protocol.submit_message(
                msg_id=self._msg_id(),
                request_id=request_id,
                dag=dag,
                source=source,
                dest=dest,
                rate=rate,
                seed=seed,
                network_id=network_id,
                constraints=constraints,
            )
        )
        if reply.get("type") == "error":
            raise ProtocolError(str(reply.get("reason")))
        return SubmitOutcome.from_reply(reply, time.perf_counter() - start)

    async def release(self, request_id: int, *, network_id: str | None = None) -> bool:
        """Release an accepted request; False when the id was not active."""
        reply = await self._request(
            protocol.release_message(
                msg_id=self._msg_id(), request_id=request_id, network_id=network_id
            )
        )
        if reply.get("type") != "released":
            raise ProtocolError(f"unexpected release reply type {reply.get('type')!r}")
        return bool(reply.get("ok"))

    async def stats(self) -> dict[str, Any]:
        """The server's live counters and gauges."""
        reply = await self._request(protocol.stats_message(msg_id=self._msg_id()))
        if reply.get("type") != "stats":
            raise ProtocolError(f"unexpected stats reply type {reply.get('type')!r}")
        return reply

    async def snapshot(self) -> dict[str, Any]:
        """Ask the server to checkpoint every shard's log; returns the
        ``snapshotted`` reply (``checkpoints``: network_id → seq)."""
        reply = await self._request(protocol.snapshot_message(msg_id=self._msg_id()))
        if reply.get("type") == "error":
            raise ServiceError(str(reply.get("reason")))
        return reply

    async def promote(self, *, network_id: str | None = None) -> dict[str, Any]:
        """Promote a shard's warm standby to primary; returns the promote reply."""
        reply = await self._request(
            protocol.promote_message(msg_id=self._msg_id(), network_id=network_id)
        )
        if reply.get("type") == "error":
            raise ServiceError(str(reply.get("reason")))
        if reply.get("type") != "promoted":
            raise ProtocolError(f"unexpected promote reply type {reply.get('type')!r}")
        return reply

    async def rebalance(
        self, *, network_id: str | None = None, inspect: bool = False
    ) -> dict[str, Any]:
        """Run one guarded rebalance cycle on a shard (``inspect=True`` only
        reports the shard's rebalance totals); returns the cycle reply."""
        reply = await self._request(
            protocol.rebalance_message(
                msg_id=self._msg_id(), network_id=network_id, inspect=inspect
            )
        )
        if reply.get("type") == "error":
            raise ServiceError(str(reply.get("reason")))
        if reply.get("type") != "rebalanced":
            raise ProtocolError(
                f"unexpected rebalance reply type {reply.get('type')!r}"
            )
        return reply

    async def drain(self, *, shutdown: bool = False) -> dict[str, Any]:
        """Drain the server (optionally shutting it down); returns final stats."""
        reply = await self._request(
            protocol.drain_message(msg_id=self._msg_id(), shutdown=shutdown)
        )
        if reply.get("type") != "drained":
            raise ProtocolError(f"unexpected drain reply type {reply.get('type')!r}")
        return reply
