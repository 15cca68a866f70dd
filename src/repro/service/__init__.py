"""The embedding service: the asyncio *transport* over the embedding engine.

Everything the one-shot entry points (``dag-sfc solve``, offline
:func:`~repro.sim.trace.replay`) cannot do: a long-running
asyncio TCP server that admits a *stream* of tenant requests under explicit
backpressure, decides them one at a time in arrival order on the live
residual view, and survives restarts via one write-ahead log per shard.
Every embedding decision — solve, commit, repair, checkpoint — lives in the
transport-agnostic :mod:`repro.engine`; one server can shard across several
substrate networks, one engine each.

* :mod:`repro.service.protocol` — the versioned JSON-lines wire protocol;
* :mod:`repro.service.server` — the transport (queueing, dispatch, shards);
* :mod:`repro.service.client` — multiplexing async client;
* :mod:`repro.service.loadgen` — open/closed-loop load generation.

See ``docs/serving.md`` for the architecture and failure modes, and
``docs/fault_tolerance.md`` for chaos mode and repair notifications.
"""

from .client import ServiceClient, SubmitOutcome
from .loadgen import LoadReport, run_load, write_report
from .protocol import (
    NOTIFY_STATUSES,
    PROTOCOL_FORMAT,
    PROTOCOL_VERSION,
    REJECT_CODES,
    SubmitIntent,
)
from ..engine.state_store import network_fingerprint
from .server import EmbeddingServer, ServiceConfig

__all__ = [
    "ServiceClient",
    "SubmitOutcome",
    "LoadReport",
    "run_load",
    "write_report",
    "PROTOCOL_FORMAT",
    "PROTOCOL_VERSION",
    "REJECT_CODES",
    "NOTIFY_STATUSES",
    "SubmitIntent",
    "EmbeddingServer",
    "ServiceConfig",
    "network_fingerprint",
]
