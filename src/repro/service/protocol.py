"""The JSON-lines wire protocol of the embedding service.

One message per line, UTF-8 JSON, newline-terminated. Every message carries
a ``"type"`` tag; client→server messages additionally carry a client-chosen
``"msg_id"`` echoed verbatim in the reply, so a client can multiplex many
in-flight requests over one connection and match replies out of order
(micro-batching reorders them).

The protocol is versioned like the on-disk formats in
:mod:`repro.serialize`: the server opens every connection with a ``hello``
naming ``format``/``version``; clients must reject mismatches rather than
guess. DAG payloads reuse the :mod:`repro.serialize` document schema.

Verbs
-----

* ``submit`` — embed one request against the shared residual capacity;
* ``release`` — return the resources of an accepted request (departure);
* ``stats`` — acceptance counters, queue depth, residual summary;
* ``snapshot`` — append a checkpoint to every shard's write-ahead log;
* ``drain`` — stop admitting, flush the queue, optionally shut down;
* ``promote`` — swap one shard's primary for its caught-up warm standby;
* ``rebalance`` — trigger one guarded defrag cycle on a shard (or, with
  ``inspect``, just report its rebalance totals).

Replies are ``accepted`` / ``rejected`` (submit), ``released``, ``stats``,
``snapshotted``, ``drained``, ``promoted``, ``rebalanced`` — or ``error``
for malformed input. Rejections
are *structured*: a machine-readable ``code`` (:data:`REJECT_CODES`) plus a
human-readable ``reason``.

Under chaos mode the server additionally *pushes* unsolicited ``notify``
lines (``msg_id: 0`` — no reply is expected) to the connection that
submitted an accepted request whenever a substrate fault forces a repair:
``status`` is one of :data:`NOTIFY_STATUSES` plus the repair cost
accounting, so a tenant learns its embedding was rerouted, re-embedded at a
new cost, or evicted. See ``docs/fault_tolerance.md``.

Sharding (version 2)
--------------------

A server may serve several independent substrate networks at once. The
``hello`` then carries a ``shards`` list (one ``network_id`` + substrate
identity per shard) and a ``default_network_id``; ``submit`` and ``release``
may carry an optional ``network_id`` to address a specific shard. Messages
without one land on the default shard, so single-network clients are
unchanged. ``notify`` pushes name the shard that repaired the embedding.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Mapping, Sequence

from ..config import FlowConfig
from ..constraints.base import ConstraintSet
from ..constraints.registry import constraints_from_specs
from ..engine import EmbeddingRequest
from ..exceptions import ConfigurationError, ProtocolError
from ..sfc.dag import DagSfc
from ..serialize import dag_from_dict, dag_to_dict

__all__ = [
    "PROTOCOL_FORMAT",
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "REJECT_CODES",
    "NOTIFY_STATUSES",
    "SubmitIntent",
    "encode_message",
    "decode_message",
    "read_message",
    "write_message",
    "hello_message",
    "check_hello",
    "submit_message",
    "submit_from_message",
    "network_id_of",
    "release_message",
    "stats_message",
    "snapshot_message",
    "drain_message",
    "promote_message",
    "rebalance_message",
    "notify_message",
]

PROTOCOL_FORMAT = "repro.dag-sfc/service"
PROTOCOL_VERSION = 2

#: Upper bound on one wire line; a line longer than this is a protocol error
#: (guards the server against unbounded buffering on a misbehaving peer).
MAX_LINE_BYTES = 1 << 20

#: Machine-readable rejection codes a ``rejected`` reply may carry.
REJECT_CODES = (
    "queue_full",  # bounded submit queue is at capacity (backpressure)
    "draining",  # server no longer admits new work
    "duplicate_id",  # request id already active or already queued
    "no_solution",  # the solver found no feasible embedding
    "capacity_conflict",  # the solved embedding no longer fit at commit
    "degraded",  # admission tightened while substrate faults are active
    "unknown_network",  # the named shard is not served here
    "constraint_violation",  # a registered constraint rejected the embedding
)

#: Terminal repair states a ``notify`` push may carry
#: (:class:`repro.faults.repair.RepairAction` values).
NOTIFY_STATUSES = ("rerouted", "re_embedded", "evicted")


#: A decoded ``submit`` IS the engine's request type — the sim, the wire
#: protocol, and the engine share one dataclass (kept under the historical
#: protocol-side name).
SubmitIntent = EmbeddingRequest


# -- framing ---------------------------------------------------------------------


def encode_message(message: Mapping[str, Any]) -> bytes:
    """Serialize one message to its wire line (compact JSON + newline)."""
    return json.dumps(dict(message), separators=(",", ":")).encode() + b"\n"


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line; raises :class:`ProtocolError` on malformed input."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON line: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(data).__name__}")
    if not isinstance(data.get("type"), str):
        raise ProtocolError("message is missing its 'type' tag")
    return data


async def read_message(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one message; ``None`` on EOF; :class:`ProtocolError` on bad input."""
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError):
        raise ProtocolError(f"wire line exceeds {MAX_LINE_BYTES} bytes") from None
    if not line:
        return None
    return decode_message(line)


async def write_message(writer: asyncio.StreamWriter, message: Mapping[str, Any]) -> None:
    """Write one message and flush it."""
    writer.write(encode_message(message))
    await writer.drain()


# -- handshake ---------------------------------------------------------------------


def hello_message(
    *,
    solver: str,
    n_nodes: int,
    n_vnf_types: int,
    network_fingerprint: str,
    shards: Sequence[Mapping[str, Any]] | None = None,
    default_network_id: str | None = None,
) -> dict[str, Any]:
    """The server's connection banner: protocol + substrate identity.

    The top-level substrate fields always describe the *default* shard so
    single-network clients need not understand sharding; a sharded server
    additionally lists every shard's identity under ``shards``.
    """
    message: dict[str, Any] = {
        "type": "hello",
        "format": PROTOCOL_FORMAT,
        "version": PROTOCOL_VERSION,
        "solver": solver,
        "n_nodes": n_nodes,
        "n_vnf_types": n_vnf_types,
        "network_fingerprint": network_fingerprint,
    }
    if shards is not None:
        message["shards"] = [dict(shard) for shard in shards]
    if default_network_id is not None:
        message["default_network_id"] = default_network_id
    return message


def check_hello(message: Mapping[str, Any]) -> None:
    """Validate a ``hello``; raises :class:`ProtocolError` on a mismatch."""
    if message.get("type") != "hello":
        raise ProtocolError(f"expected a hello, got {message.get('type')!r}")
    if message.get("format") != PROTOCOL_FORMAT:
        raise ProtocolError(f"not a {PROTOCOL_FORMAT} peer")
    if message.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {message.get('version')!r} "
            f"(expected {PROTOCOL_VERSION})"
        )


# -- client → server messages -------------------------------------------------------


def submit_message(
    *,
    msg_id: int,
    request_id: int,
    dag: DagSfc,
    source: int,
    dest: int,
    rate: float = 1.0,
    seed: int | None = None,
    network_id: str | None = None,
    constraints: "ConstraintSet | Sequence[Mapping[str, Any]] | None" = None,
) -> dict[str, Any]:
    """Build a ``submit`` line (``network_id`` omitted → default shard).

    ``constraints`` may be a live :class:`ConstraintSet` or pre-serialized
    specs; the field is omitted entirely when empty, so constraint-free
    clients emit byte-identical version-2 lines.
    """
    message: dict[str, Any] = {
        "type": "submit",
        "msg_id": msg_id,
        "request_id": request_id,
        "dag": dag_to_dict(dag),
        "source": source,
        "dest": dest,
        "rate": rate,
    }
    if seed is not None:
        message["seed"] = seed
    if network_id is not None:
        message["network_id"] = network_id
    if constraints:
        specs = (
            constraints.specs()
            if isinstance(constraints, ConstraintSet)
            else [dict(spec) for spec in constraints]
        )
        if specs:
            message["constraints"] = specs
    return message


def submit_from_message(message: Mapping[str, Any]) -> SubmitIntent:
    """Decode/validate a ``submit`` into a :class:`SubmitIntent`."""
    try:
        request_id = int(message["request_id"])
        source = int(message["source"])
        dest = int(message["dest"])
        rate = float(message.get("rate", 1.0))
        msg_id = int(message.get("msg_id", 0))
        dag = dag_from_dict(message["dag"])
    except (KeyError, TypeError, ValueError) as exc:
        # serialize/dag validation errors are ValueError subclasses too.
        raise ProtocolError(f"malformed submit: {exc}") from None
    if rate <= 0:
        raise ProtocolError(f"submit rate must be > 0, got {rate}")
    seed = message.get("seed")
    specs = message.get("constraints")
    if specs is None:
        constraints = ConstraintSet.EMPTY
    else:
        if not isinstance(specs, list):
            raise ProtocolError(
                f"submit constraints must be a list of specs, got {type(specs).__name__}"
            )
        try:
            constraints = constraints_from_specs(specs)
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed submit constraints: {exc}") from None
    return SubmitIntent(
        request_id=request_id,
        dag=dag,
        source=source,
        dest=dest,
        flow=FlowConfig(rate=rate),
        seed=None if seed is None else int(seed),
        msg_id=msg_id,
        constraints=constraints,
    )


def network_id_of(message: Mapping[str, Any]) -> str | None:
    """The shard a message addresses (``None`` → the default shard)."""
    network_id = message.get("network_id")
    if network_id is None:
        return None
    if not isinstance(network_id, str) or not network_id:
        raise ProtocolError(
            f"network_id must be a non-empty string, got {network_id!r}"
        )
    return network_id


def release_message(
    *, msg_id: int, request_id: int, network_id: str | None = None
) -> dict[str, Any]:
    """Build a ``release`` line (``network_id`` omitted → default shard)."""
    message: dict[str, Any] = {
        "type": "release",
        "msg_id": msg_id,
        "request_id": request_id,
    }
    if network_id is not None:
        message["network_id"] = network_id
    return message


def stats_message(*, msg_id: int) -> dict[str, Any]:
    """Build a ``stats`` line."""
    return {"type": "stats", "msg_id": msg_id}


def snapshot_message(*, msg_id: int) -> dict[str, Any]:
    """Build a ``snapshot`` line."""
    return {"type": "snapshot", "msg_id": msg_id}


def drain_message(*, msg_id: int, shutdown: bool = False) -> dict[str, Any]:
    """Build a ``drain`` line (``shutdown=True`` stops the server after)."""
    return {"type": "drain", "msg_id": msg_id, "shutdown": shutdown}


def promote_message(*, msg_id: int, network_id: str | None = None) -> dict[str, Any]:
    """Build a ``promote`` line: swap a shard's primary for its warm standby
    (``network_id`` omitted → default shard)."""
    message: dict[str, Any] = {"type": "promote", "msg_id": msg_id}
    if network_id is not None:
        message["network_id"] = network_id
    return message


def rebalance_message(
    *, msg_id: int, network_id: str | None = None, inspect: bool = False
) -> dict[str, Any]:
    """Build a ``rebalance`` line: run one guarded defrag cycle on a shard
    (``network_id`` omitted → default shard). With ``inspect=True`` no cycle
    runs; the reply just carries the shard's rebalance totals."""
    message: dict[str, Any] = {"type": "rebalance", "msg_id": msg_id}
    if network_id is not None:
        message["network_id"] = network_id
    if inspect:
        message["inspect"] = True
    return message


# -- server → client pushes ---------------------------------------------------------


def notify_message(
    *,
    request_id: int,
    status: str,
    detail: str,
    old_cost: float,
    new_cost: float,
    network_id: str | None = None,
) -> dict[str, Any]:
    """Build an unsolicited repair ``notify`` push (``msg_id`` 0 by design)."""
    if status not in NOTIFY_STATUSES:
        raise ProtocolError(
            f"notify status must be one of {NOTIFY_STATUSES}, got {status!r}"
        )
    message: dict[str, Any] = {
        "type": "notify",
        "msg_id": 0,
        "request_id": request_id,
        "status": status,
        "detail": detail,
        "old_cost": old_cost,
        "new_cost": new_cost,
    }
    if network_id is not None:
        message["network_id"] = network_id
    return message
