"""Routing requests across multiple independent substrate networks.

A :class:`ShardRouter` maps a ``network_id`` to the
:class:`~repro.engine.core.EmbeddingEngine` owning that substrate. Shards
are fully independent — separate ledgers, fault states, and repair engines;
the router only resolves ids, aggregates cross-shard telemetry, and
serializes/restores the per-shard snapshots. The multi-cloud SFC placement
literature (Bhamare et al.) treats the substrate exactly this way: a set of
independently priced clouds, each embedding its own share of the request
stream.

Requests that carry no ``network_id`` land on the **default shard** (the
first one registered), which keeps every single-network client and fixture
working unchanged.
"""

from __future__ import annotations

import os
from typing import Any, Iterator, Mapping

from ..embedding.base import Embedder
from ..exceptions import ConfigurationError, SnapshotError
from ..network.cloud import CloudNetwork
from ..wal.log import shard_wal_path
from ..wal.standby import StandbyEngine
from . import state_store
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

    def save_snapshot(
        self,
        path: str,
        *,
        extra_counters: Mapping[str, Mapping[str, float]] | None = None,
    ) -> None:
        """Persist every shard's state to one document.

        A single-shard router writes the plain ``service-state`` document
        (the shape of the pre-sharding service); multiple shards write the
        ``service-state-sharded`` kind. ``extra_counters`` carries per-shard
        transport counters to merge into each sub-document.
        """
        extras = extra_counters or {}
        docs = {
            network_id: engine.snapshot_doc(extra_counters=extras.get(network_id))
            for network_id, engine in self.items()
        }
        if len(docs) > 1:
            state_store.write_document(path, state_store.sharded_snapshot_to_dict(docs))
        else:
            state_store.write_document(path, docs[self.default_id])

    @classmethod
    def restore(
        cls,
        networks: Mapping[str, CloudNetwork],
        solver: Embedder | str,
        path: str | None,
        *,
        seed: int = 0,
        wal_dir: str | None = None,
    ) -> tuple["ShardRouter", dict[str, dict[str, float]]]:
        """Rebuild a router from a snapshot and/or per-shard write-ahead logs.

        Accepts both document kinds: a plain ``service-state`` snapshot
        restores a single-shard router (the one configured network), a
        sharded document restores every shard. With ``wal_dir`` each shard
        additionally replays its own log past the snapshot's position
        (``path`` may be None, or name a not-yet-written file, for WAL-only
        recovery). Returns the router plus the per-shard leftover
        (transport-level) counters.
        """
        docs: Mapping[str, Mapping[str, Any]] = {}
        if path is not None and (wal_dir is None or os.path.exists(path)):
            doc = state_store.read_document(path)
            if len(networks) == 1:
                docs = {network_id: doc for network_id in networks}
            else:
                docs = state_store.shard_documents(doc)
                if set(docs) != set(networks):
                    raise SnapshotError(
                        f"snapshot shards {sorted(docs)} do not match "
                        f"the configured networks {sorted(networks)}"
                    )
        engines: dict[str, EmbeddingEngine] = {}
        leftovers: dict[str, dict[str, float]] = {}
        for network_id, network in networks.items():
            engine, leftovers[network_id] = EmbeddingEngine.from_snapshot(
                network, solver, docs.get(network_id), seed=seed
            )
            wal_path = None if wal_dir is None else shard_wal_path(wal_dir, network_id)
            if wal_path is not None and os.path.exists(wal_path):
                engine.replay_wal(wal_path, after_seq=engine.wal_applied_seq)
            engines[network_id] = engine
        return cls(engines), leftovers
