"""The benchmark's own load generator over one :class:`ServiceClient` connection.

Releases follow a *logical* clock instead of the wall clock: a request
departs just before the first arrival whose trace step reaches its
departure step, the order :func:`repro.sim.trace.replay` uses. The ledger
state each decision sees then depends on the trace alone, not on how fast
the server answered (exactly so with one request in flight).

Two disciplines:

* closed loop — at most ``in_flight`` submits outstanding; latency is
  timed from the send;
* open loop — arrivals are due at ``step x tick_s`` regardless of replies;
  latency is timed from the due time, so a stall is charged to every
  request it delays, and the generator's own lateness is recorded as a
  validity check of the run.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.exceptions import ServiceError
from repro.service.client import ServiceClient, SubmitOutcome
from repro.sim.trace import TraceEvent

__all__ = ["DECISION_CODES", "DepartureClock", "DriveResult", "drive"]

#: Reject codes that are decisions. Any other outcome of a submit (a shed
#: code, ``draining``, a protocol or transport error) is a failed operation.
DECISION_CODES = frozenset({"no_solution", "constraint_violation", "capacity_conflict"})


class DepartureClock:
    """Departures keyed by trace step, popped in (step, request id) order."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int]] = []

    def hold(self, event: TraceEvent) -> None:
        """Schedule ``event``'s departure (whether or not it is accepted)."""
        heapq.heappush(self._heap, (event.departure_step, event.request.request_id))

    def due(self, step: int) -> list[int]:
        """Ids departing at or before ``step``, in release order."""
        out: list[int] = []
        while self._heap and self._heap[0][0] <= step:
            out.append(heapq.heappop(self._heap)[1])
        return out


@dataclass
class DriveResult:
    """What the client saw during one measured run."""

    #: the arrivals actually submitted, in order (a prefix of the trace).
    submitted: list[TraceEvent] = field(default_factory=list)
    #: request id -> decided outcome (failed submits are absent).
    outcomes: dict[int, SubmitOutcome] = field(default_factory=dict)
    #: request id -> seconds from send (closed) or due time (open) to reply.
    latencies: dict[int, float] = field(default_factory=dict)
    #: request ids whose release was acknowledged ``ok: true``, in order.
    released: list[int] = field(default_factory=list)
    #: one line per failed operation.
    failures: list[str] = field(default_factory=list)
    releases_attempted: int = 0
    #: open loop only: seconds each send trailed its due time.
    lateness: list[float] = field(default_factory=list)
    #: wall seconds from the first send to the last decision.
    elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.submitted) + self.releases_attempted


async def drive(
    client: ServiceClient,
    events: Sequence[TraceEvent],
    seeds: dict[int, int],
    *,
    seconds: float | None,
    in_flight: int | None,
    tick_s: float = 0.0,
    constraints: Any = None,
) -> DriveResult:
    """Submit ``events`` in order until ``seconds`` have passed (``None``:
    submit them all), then wait for every reply.

    ``in_flight`` selects the closed loop; ``None`` the open loop on
    ``tick_s``.
    """
    result = DriveResult()
    clock = DepartureClock()
    decided: dict[int, asyncio.Future[SubmitOutcome | None]] = {}
    tasks: list[asyncio.Task[None]] = []
    gate = asyncio.Semaphore(in_flight) if in_flight is not None else None
    loop = asyncio.get_running_loop()
    start = time.perf_counter()
    stop = start + seconds if seconds is not None else float("inf")
    last_reply = start

    async def _release(request_id: int) -> None:
        result.releases_attempted += 1
        try:
            ok = await client.release(request_id)
        except ServiceError as exc:
            result.failures.append(f"release {request_id}: {exc}")
            return
        if ok:
            result.released.append(request_id)
        else:
            result.failures.append(f"release {request_id}: answered ok=false")

    async def _depart(request_id: int) -> None:
        outcome = await decided[request_id]
        if outcome is not None and outcome.accepted:
            await _release(request_id)

    async def _submit(event: TraceEvent, t0: float) -> None:
        nonlocal last_reply
        request = event.request
        outcome: SubmitOutcome | None = None
        try:
            outcome = await client.submit(
                request.request_id,
                request.dag,
                request.source,
                request.dest,
                rate=request.flow.rate,
                seed=seeds[request.request_id],
                constraints=constraints,
            )
        except ServiceError as exc:
            result.failures.append(f"submit {request.request_id}: {exc}")
        finally:
            if gate is not None:
                gate.release()
        now = time.perf_counter()
        if outcome is not None and not outcome.accepted and outcome.code not in DECISION_CODES:
            result.failures.append(f"submit {request.request_id}: shed {outcome.code}")
            outcome = None
        if outcome is not None:
            result.outcomes[request.request_id] = outcome
            result.latencies[request.request_id] = now - t0
            last_reply = max(last_reply, now)
        decided[request.request_id].set_result(outcome)

    for event in events:
        if gate is None:
            due = start + event.step * tick_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        if time.perf_counter() >= stop:
            break
        if gate is not None:
            # Take the slot before sending this arrival's releases: the
            # server applies a cycle's releases ahead of its submits, so a
            # release sent while the previous submit still queues could
            # overtake it.
            await gate.acquire()
        for request_id in clock.due(event.step):
            if gate is not None:
                # Closed loop: the departure must reach the server before
                # this arrival does, so wait for the decision it depends on.
                # The open loop never blocks; it departs once decided.
                await decided[request_id]
            tasks.append(asyncio.create_task(_depart(request_id)))
        if gate is None:
            t0 = start + event.step * tick_s
            result.lateness.append(time.perf_counter() - t0)
        else:
            t0 = time.perf_counter()
        decided[event.request.request_id] = loop.create_future()
        result.submitted.append(event)
        clock.hold(event)
        tasks.append(asyncio.create_task(_submit(event, t0)))
    await asyncio.gather(*(f for f in decided.values()))
    result.elapsed_s = last_reply - start
    await asyncio.gather(*tasks)
    return result
