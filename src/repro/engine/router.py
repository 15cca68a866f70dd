"""Routing requests across multiple independent substrate networks.

A :class:`ShardRouter` maps a ``network_id`` to the
:class:`~repro.engine.core.EmbeddingEngine` owning that substrate. Shards
are fully independent — separate ledgers, fault states, repair engines and
write-ahead logs; the router only resolves ids, aggregates cross-shard
telemetry, swaps in promoted standbys, and restores every shard from its own
log. The multi-cloud SFC placement literature (Bhamare et al.) treats the
substrate exactly this way: a set of independently priced clouds, each
embedding its own share of the request stream.

Requests that carry no ``network_id`` land on the **default shard** (the
first one registered), which keeps every single-network client and fixture
working unchanged.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from ..embedding.base import Embedder
from ..exceptions import ConfigurationError, WalError
from ..network.cloud import CloudNetwork
from ..wal.log import logged_shard_ids, shard_wal_path
from ..wal.standby import StandbyEngine
from .core import EmbeddingEngine

__all__ = ["DEFAULT_NETWORK_ID", "ShardRouter", "advertised_vnf_types"]

#: the network id assigned when a single bare network is wrapped.
DEFAULT_NETWORK_ID = "net0"


def advertised_vnf_types(network: CloudNetwork) -> int:
    """Catalog size advertised for one substrate (drives client trace
    generation): the largest deployed regular VNF category."""
    return max((t for t in network.deployments.deployed_types if t > 0), default=0)


class ShardRouter:
    """``network_id`` → engine, plus cross-shard aggregation helpers."""

    def __init__(self, engines: Mapping[str, EmbeddingEngine]) -> None:
        if not engines:
            raise ConfigurationError("a shard router needs at least one engine")
        for network_id in engines:
            if not network_id or not isinstance(network_id, str):
                raise ConfigurationError(
                    f"network ids must be non-empty strings, got {network_id!r}"
                )
        self._engines = dict(engines)
        #: the shard requests without a ``network_id`` are routed to.
        self.default_id = next(iter(self._engines))
        self._standbys: dict[str, StandbyEngine] = {}

    @classmethod
    def from_networks(
        cls,
        networks: Mapping[str, CloudNetwork],
        solver: Embedder | str,
        *,
        seed: int = 0,
    ) -> "ShardRouter":
        """Build one engine per network, all running the same solver."""
        return cls(
            {
                network_id: EmbeddingEngine(network, solver, seed=seed)
                for network_id, network in networks.items()
            }
        )

    # -- resolution -----------------------------------------------------------------

    def get(self, network_id: str | None = None) -> EmbeddingEngine:
        """The engine for ``network_id`` (``None`` → the default shard)."""
        if network_id is None:
            return self._engines[self.default_id]
        try:
            return self._engines[network_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown network_id {network_id!r}; serving: "
                f"{', '.join(self.network_ids)}"
            ) from None

    @property
    def default(self) -> EmbeddingEngine:
        """The default shard's engine."""
        return self._engines[self.default_id]

    @property
    def network_ids(self) -> tuple[str, ...]:
        """Every shard id, default first (registration order)."""
        return tuple(self._engines)

    def __len__(self) -> int:
        return len(self._engines)

    def __contains__(self, network_id: str) -> bool:
        return network_id in self._engines

    def items(self) -> Iterator[tuple[str, EmbeddingEngine]]:
        """(network_id, engine) pairs in registration order."""
        return iter(self._engines.items())

    # -- aggregation ----------------------------------------------------------------

    def active_count(self) -> int:
        """Requests holding resources across every shard."""
        return sum(engine.active_count() for engine in self._engines.values())

    def repair_times(self) -> tuple[float, ...]:
        """Every shard's repair durations, concatenated in shard order."""
        times: list[float] = []
        for engine in self._engines.values():
            times.extend(engine.repair_times())
        return tuple(times)

    # -- warm standby / promotion ----------------------------------------------------

    def attach_standby(self, network_id: str, standby: StandbyEngine) -> None:
        """Register a WAL-tailing standby as ``network_id``'s fail-over."""
        if network_id not in self._engines:
            raise ConfigurationError(
                f"cannot attach a standby for unknown network_id {network_id!r}"
            )
        self._standbys[network_id] = standby

    def has_standby(self, network_id: str) -> bool:
        return network_id in self._standbys

    def get_standby(self, network_id: str) -> StandbyEngine | None:
        return self._standbys.get(network_id)

    def promote(self, network_id: str) -> EmbeddingEngine:
        """Swap a dead primary for its standby (blocking file IO).

        Detaches the old primary's writer (it may be gone already — a dead
        process holds no lock we could check), promotes the standby into a
        fully caught-up engine writing to the same log, and rebinds the
        shard. Returns the new primary.
        """
        if network_id not in self._engines:
            raise ConfigurationError(
                f"unknown network_id {network_id!r}; serving: "
                f"{', '.join(self.network_ids)}"
            )
        standby = self._standbys.pop(network_id, None)
        if standby is None:
            raise ConfigurationError(
                f"shard {network_id!r} has no standby attached"
            )
        # Abandon, never sync: the dead primary's unsynced buffer holds
        # decisions that were never acknowledged, and the standby is about
        # to resume the log file itself.
        self._engines[network_id].abandon_wal()
        engine = standby.promote()
        self._engines[network_id] = engine
        return engine

    # -- durability -----------------------------------------------------------------

    @classmethod
    def restore(
        cls,
        networks: Mapping[str, CloudNetwork],
        solver: Embedder | str,
        wal_dir: str,
        *,
        seed: int = 0,
    ) -> tuple["ShardRouter", dict[str, dict[str, float]]]:
        """Rebuild a router from the per-shard write-ahead logs in ``wal_dir``.

        Each shard goes through :meth:`EmbeddingEngine.restore` on its own
        log (a shard without one starts fresh). A non-empty log for a shard
        that is not configured raises :class:`WalError` rather than silently
        dropping the reservations it holds. Returns the router plus the
        per-shard leftover (transport-level) counters.
        """
        logged = logged_shard_ids(wal_dir)
        if not logged <= set(networks):
            raise WalError(
                f"logged shards {sorted(logged)} in {wal_dir} do not match "
                f"the configured networks {sorted(networks)}"
            )
        engines: dict[str, EmbeddingEngine] = {}
        leftovers: dict[str, dict[str, float]] = {}
        for network_id, network in networks.items():
            engines[network_id], leftovers[network_id] = EmbeddingEngine.restore(
                network, solver, shard_wal_path(wal_dir, network_id), seed=seed
            )
        return cls(engines), leftovers
