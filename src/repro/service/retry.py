"""Client-side resilience: bounded retries with backoff, jitter, timeouts.

Under chaos the service stays up but individual interactions fail in
bounded, *typed* ways: the transport drops
(:class:`~repro.exceptions.ServiceUnavailable`), a reply never arrives
(per-attempt timeout), or the server sheds the request with a transient
code (``queue_full`` while the dispatcher catches up, ``degraded`` while
admission is tightened during active faults). :class:`ResilientClient`
turns all three into one behaviour: retry up to
:attr:`RetryPolicy.attempts` times with exponential backoff and *seeded*
jitter (the whole stack stays replayable — no unseeded randomness),
reconnecting first whenever the transport broke.

Permanent rejections (``no_solution``, ``duplicate_id``,
``capacity_conflict``) are returned immediately: retrying them would only
re-ask a question whose answer cannot change.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, TypeVar

from ..exceptions import ConfigurationError, ServiceUnavailable
from ..sfc.dag import DagSfc
from ..utils.rng import RngStream, as_generator
from .client import ServiceClient, SubmitOutcome

__all__ = ["RetryPolicy", "ResilientClient", "DEFAULT_RETRY_CODES"]

#: Rejection codes that describe a *transient* server state worth retrying.
DEFAULT_RETRY_CODES = frozenset({"queue_full", "degraded"})

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try: attempt budget, backoff shape, per-attempt timeout."""

    #: total attempts per operation (first try included).
    attempts: int = 4
    #: backoff before retry k is ``base_delay * 2**(k-1)``, capped …
    base_delay: float = 0.05
    #: … at this ceiling (seconds), then jittered by ±50 %.
    max_delay: float = 1.0
    #: per-attempt reply deadline in seconds.
    timeout: float = 30.0
    #: rejection codes treated as transient.
    retry_codes: frozenset[str] = DEFAULT_RETRY_CODES

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ConfigurationError(
                "need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}/{self.max_delay}"
            )
        if self.timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout}")

    def delay(self, attempt: int, jitter: float) -> float:
        """Backoff before retry ``attempt`` (1-based); ``jitter`` in [0, 1)."""
        raw = min(self.base_delay * (2.0 ** (attempt - 1)), self.max_delay)
        return raw * (0.5 + jitter)  # ±50 % around the nominal value


class ResilientClient:
    """A :class:`ServiceClient` wrapper that survives transient failures.

    Reconnects whenever an operation dies with
    :class:`~repro.exceptions.ServiceUnavailable` or times out, and retries
    submissions the server shed with a transient code. All delays are drawn
    from a seeded stream, so a chaos run with a fixed seed retries at the
    same schedule every time.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy | None = None,
        rng: RngStream = None,
    ) -> None:
        self.host = host
        self.port = port
        self.policy = policy if policy is not None else RetryPolicy()
        self._gen = as_generator(rng)
        self._client: ServiceClient | None = None
        #: transparent retries performed so far (for reporting).
        self.retries = 0

    # -- lifecycle ------------------------------------------------------------------

    async def connect(self) -> None:
        """Establish the underlying connection (with the retry budget)."""
        await self._ensure_client()

    async def close(self) -> None:
        if self._client is not None:
            await self._client.close()
            self._client = None

    async def __aenter__(self) -> "ResilientClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    @property
    def client(self) -> ServiceClient | None:
        """The live underlying client, or None when disconnected."""
        return self._client

    @property
    def notifications(self) -> "asyncio.Queue[dict[str, Any]]":
        """The current connection's repair-notification queue."""
        if self._client is None:
            raise ServiceUnavailable("not connected")
        return self._client.notifications

    # -- plumbing -------------------------------------------------------------------

    async def _ensure_client(self) -> ServiceClient:
        if self._client is not None:
            return self._client
        last: Exception | None = None
        for attempt in range(1, self.policy.attempts + 1):
            try:
                self._client = await asyncio.wait_for(
                    ServiceClient.connect(self.host, self.port),
                    timeout=self.policy.timeout,
                )
                return self._client
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last = exc
                if attempt < self.policy.attempts:
                    self.retries += 1
                    await self._backoff(attempt)
        raise ServiceUnavailable(
            f"could not connect to {self.host}:{self.port} "
            f"after {self.policy.attempts} attempts: {last}"
        ) from last

    async def _backoff(self, attempt: int) -> None:
        await asyncio.sleep(self.policy.delay(attempt, float(self._gen.random())))

    async def _drop_client(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    async def _retrying(
        self,
        what: str,
        call: Callable[[ServiceClient], Awaitable[T]],
        *,
        shed: Callable[[T], bool] | None = None,
    ) -> T:
        """``call`` on the live client, retried within the attempt budget.

        Transport failures and timeouts reconnect and retry. A reply that
        ``shed`` flags (a transient rejection) backs off and retries too;
        once the budget is spent the last such reply is returned as-is.
        """
        last_exc: Exception | None = None
        last_shed: T | None = None
        for attempt in range(1, self.policy.attempts + 1):
            try:
                client = await self._ensure_client()
                reply = await asyncio.wait_for(call(client), timeout=self.policy.timeout)
            except (ServiceUnavailable, asyncio.TimeoutError) as exc:
                last_exc = exc
                await self._drop_client()
            else:
                if shed is None or not shed(reply) or attempt == self.policy.attempts:
                    return reply
                last_shed = reply
            if attempt < self.policy.attempts:
                self.retries += 1
                await self._backoff(attempt)
        if last_shed is not None:
            return last_shed
        raise ServiceUnavailable(
            f"{what} failed after {self.policy.attempts} attempts: {last_exc}"
        ) from last_exc

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
        """Submit with retries; returns the final outcome.

        Transport failures and timeouts reconnect and retry; the server's
        duplicate-id screen makes the retry safe even when the original
        submit was actually decided (the duplicate rejection then simply
        reports the id is active). Transient shed codes back off and retry;
        every other decision is final and returned as-is.
        """
        return await self._retrying(
            f"submit {request_id}",
            lambda client: client.submit(
                request_id, dag, source, dest,
                rate=rate, seed=seed, network_id=network_id, constraints=constraints,
            ),
            shed=lambda outcome: not outcome.accepted
            and outcome.code in self.policy.retry_codes,
        )

    async def release(self, request_id: int, *, network_id: str | None = None) -> bool:
        """Release with transport-level retries."""
        return await self._retrying(
            f"release {request_id}",
            lambda client: client.release(request_id, network_id=network_id),
        )

    async def stats(self) -> dict[str, Any]:
        """Stats with transport-level retries."""
        return await self._retrying("stats", lambda client: client.stats())

    async def promote(self, *, network_id: str | None = None) -> dict[str, Any]:
        """Promote with transport-level retries.

        Safe to replay: promotion is idempotent at the server (a shard with
        no configured standby rejects with a typed error, and a repeated
        promote after a success simply promotes the next standby state or
        errors) — the retry never leaves the ledger half-swapped.
        """
        return await self._retrying(
            "promote", lambda client: client.promote(network_id=network_id)
        )

    async def rebalance(
        self, *, network_id: str | None = None, inspect: bool = False
    ) -> dict[str, Any]:
        """Rebalance with transport-level retries.

        Safe to replay: every cycle re-validates against live capacity at
        apply time, so a duplicated trigger at worst runs one extra guarded
        cycle whose moves are gated by the same min-gain threshold.
        """
        return await self._retrying(
            "rebalance",
            lambda client: client.rebalance(network_id=network_id, inspect=inspect),
        )

    async def drain(self, *, shutdown: bool = False) -> dict[str, Any]:
        """Drain (no retries — a drain must not be replayed blindly)."""
        client = await self._ensure_client()
        return await client.drain(shutdown=shutdown)
