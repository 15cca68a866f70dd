"""The transport-agnostic embedding engine (one substrate, one state machine).

This package is the single home of the admission → solve → commit → repair
lifecycle that used to exist twice — synchronously in an offline simulator
and interleaved with asyncio transport concerns in the embedding server.
Offline replay and the server are both thin drivers over it now:

* :mod:`repro.engine.request` — :class:`EmbeddingRequest`, the one request
  type the sim, the wire protocol, and the engine all share;
* :mod:`repro.engine.core` — :class:`EmbeddingEngine` (ledger + fault state
  + repair ladder + decision logic) and its :class:`Decision` verdicts;
* :mod:`repro.engine.tick` — :class:`ShardTick`, one shard: its engine,
  its optional warm standby, and the one synchronous step (releases →
  faults → submits → rebalance → WAL sync) that both the service
  dispatcher and offline replay run, counted as the shard's clock; plus
  :func:`restore_shards`, which rebuilds every shard from its own log;
* :mod:`repro.engine.rebalance` — :class:`Rebalancer`, the background
  defrag loop planning pinned re-embeds and applying them through the
  engine's atomic :meth:`~repro.engine.core.EmbeddingEngine.migrate`;
* :mod:`repro.engine.state_store` — the canonical reservation record and
  the substrate fingerprint every write-ahead log header carries.

Layering rule (enforced by reprolint's RPL601): the service transport
imports solvers, the reservation ledger, and the repair machinery **only**
through this package. See ``docs/architecture.md``.
"""

from ..faults.repair import RepairAction, RepairOutcome
from ..network.reservations import Reservation, ReservationLedger
from ..wal.log import WalRecord, WalWriter, read_wal, shard_wal_path
from ..wal.standby import StandbyEngine
from .core import (
    ENGINE_COUNTER_KEYS,
    FLOAT_COUNTER_KEYS,
    REBALANCE_COUNTER_KEYS,
    Decision,
    EmbeddingEngine,
    Migration,
)
from .rebalance import (
    PlannedMove,
    RebalanceConfig,
    RebalanceReport,
    Rebalancer,
    fragmentation_index,
)
from .request import EmbeddingRequest
from .tick import (
    DEFAULT_NETWORK_ID,
    ShardTick,
    StepResult,
    advertised_vnf_types,
    restore_shards,
)
from .state_store import network_fingerprint

__all__ = [
    "ENGINE_COUNTER_KEYS",
    "FLOAT_COUNTER_KEYS",
    "REBALANCE_COUNTER_KEYS",
    "Decision",
    "Migration",
    "EmbeddingEngine",
    "EmbeddingRequest",
    "PlannedMove",
    "RebalanceConfig",
    "RebalanceReport",
    "Rebalancer",
    "fragmentation_index",
    "DEFAULT_NETWORK_ID",
    "ShardTick",
    "StepResult",
    "advertised_vnf_types",
    "restore_shards",
    "RepairAction",
    "RepairOutcome",
    "Reservation",
    "ReservationLedger",
    "network_fingerprint",
    "StandbyEngine",
    "WalRecord",
    "WalWriter",
    "read_wal",
    "shard_wal_path",
]
