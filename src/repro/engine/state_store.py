"""Durable snapshots of an engine's authoritative residual state.

A snapshot is the record needed to resume serving mid-trace after a crash or
planned restart: every active reservation (absolute amounts, the same
records the :class:`~repro.network.reservations.ReservationLedger` keeps in
memory) plus the acceptance counters, and — when an
:class:`~repro.engine.core.EmbeddingEngine` writes it — the rest of the
engine state replay depends on (tracked embeddings, dead elements, sequence
and rebalance counters; see
:meth:`~repro.engine.core.EmbeddingEngine.snapshot_doc`). The substrate network itself
is *not* embedded — it is deterministic from its generator seed or archived
separately via :mod:`repro.serialize` — but a SHA-256 fingerprint of its
canonical serialization is stored and checked on restore, so a snapshot can
never be silently replayed against the wrong network.

Restore rebuilds the ledger by re-reserving each record through the normal
capacity-checked API; a corrupt snapshot that over-commits any resource
therefore fails loudly instead of resuming in an impossible state.

Two document kinds exist:

* ``service-state`` (version 1) — one engine's ledger + counters (+ the
  optional engine-state keys); documents without those keys keep restoring.
* ``service-state-sharded`` (version 1) — a multi-network server: one
  ``service-state`` sub-document per ``network_id``, each fingerprint-guarded
  against its own substrate.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Mapping

from ..exceptions import CapacityError, SnapshotError
from ..network.cloud import CloudNetwork
from ..network.reservations import Reservation, ReservationLedger
from ..network.state import ResidualState
from ..serialize import network_to_dict

__all__ = [
    "SNAPSHOT_KIND",
    "SHARDED_SNAPSHOT_KIND",
    "network_fingerprint",
    "snapshot_to_dict",
    "ledger_from_dict",
    "load_snapshot",
    "sharded_snapshot_to_dict",
    "shard_documents",
    "read_document",
    "write_document",
    "reservation_to_record",
    "reservation_from_record",
    "wal_position_of",
]

_FORMAT = "repro.dag-sfc"
_VERSION = 1
SNAPSHOT_KIND = "service-state"
SHARDED_SNAPSHOT_KIND = "service-state-sharded"


def network_fingerprint(network: CloudNetwork) -> str:
    """SHA-256 of the canonical network serialization (restore guard)."""
    canonical = json.dumps(network_to_dict(network), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def reservation_to_record(request_id: int, reservation: Reservation) -> dict[str, Any]:
    """One reservation in canonical snapshot/WAL form (sorted list triples)."""
    return {
        "request_id": request_id,
        "cost": reservation.cost,
        "vnf": [
            [node, vnf_type, amount]
            for (node, vnf_type), amount in sorted(reservation.vnf.items())
        ],
        "links": [
            [u, v, amount] for (u, v), amount in sorted(reservation.links.items())
        ],
    }


def reservation_from_record(record: Mapping[str, Any]) -> Reservation:
    """Rebuild a :class:`Reservation` from its canonical record form."""
    return Reservation(
        vnf={
            (int(node), int(vnf_type)): float(amount)
            for node, vnf_type, amount in record["vnf"]
        },
        links={(int(u), int(v)): float(amount) for u, v, amount in record["links"]},
        cost=float(record["cost"]),
    )


def snapshot_to_dict(
    ledger: ReservationLedger,
    *,
    counters: Mapping[str, float],
    wal: Mapping[str, Any] | None = None,
    engine: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Serialize the ledger + counters into a versioned snapshot document.

    ``wal`` is the optional write-ahead-log position this state reflects
    (``{"seq": ..., "chain": ...}``); restore replays only records past it.
    The key is omitted entirely when no WAL is attached, keeping WAL-off
    documents byte-identical to pre-WAL snapshots. ``engine`` holds extra
    top-level keys the engine adds for its own state.
    """
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": SNAPSHOT_KIND,
        "network_fingerprint": network_fingerprint(ledger.state.network),
        "counters": dict(counters),
        "reservations": [
            reservation_to_record(request_id, reservation)
            for request_id, reservation in ledger.reservations()
        ],
    }
    if wal is not None:
        doc["wal"] = dict(wal)
    doc.update(engine or {})
    return doc


def wal_position_of(doc: Mapping[str, Any]) -> int:
    """The WAL sequence number a snapshot document already reflects (0 = none)."""
    position = doc.get("wal")
    if not isinstance(position, Mapping):
        return 0
    return int(position.get("seq", 0))


def _check_header(data: Mapping[str, Any], kind: str) -> None:
    if data.get("format") != _FORMAT or data.get("kind") != kind:
        raise SnapshotError(f"not a {_FORMAT} {kind} document")
    if data.get("version") != _VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {data.get('version')!r} (expected {_VERSION})"
        )


def ledger_from_dict(
    data: Mapping[str, Any], network: CloudNetwork
) -> tuple[ReservationLedger, dict[str, float]]:
    """Rebuild a ledger (and counters) from a snapshot document.

    Every reservation is re-claimed through the capacity-checked reserve
    path, so an over-committed or mismatched snapshot raises
    :class:`SnapshotError` instead of producing an invalid residual state.
    """
    _check_header(data, SNAPSHOT_KIND)
    fingerprint = network_fingerprint(network)
    if data.get("network_fingerprint") != fingerprint:
        raise SnapshotError(
            "snapshot was taken against a different network "
            f"(fingerprint {str(data.get('network_fingerprint'))[:12]}… "
            f"!= {fingerprint[:12]}…)"
        )
    ledger = ReservationLedger(ResidualState(network))
    try:
        for record in data["reservations"]:
            ledger.reserve(int(record["request_id"]), reservation_from_record(record))
    except CapacityError as exc:
        raise SnapshotError(f"snapshot over-commits the network: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot reservation record: {exc}") from None
    counters = {str(k): float(v) for k, v in dict(data.get("counters", {})).items()}
    return ledger, counters


def load_snapshot(
    path: str, network: CloudNetwork
) -> tuple[ReservationLedger, dict[str, float]]:
    """Load a ``service-state`` snapshot and rebuild its ledger (and counters)."""
    return ledger_from_dict(read_document(path), network)


# -- sharded (multi-network) snapshots ------------------------------------------------


def sharded_snapshot_to_dict(shards: Mapping[str, Mapping[str, Any]]) -> dict[str, Any]:
    """Wrap one ``service-state`` sub-document per ``network_id``."""
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": SHARDED_SNAPSHOT_KIND,
        "shards": {network_id: shards[network_id] for network_id in sorted(shards)},
    }


def shard_documents(data: Mapping[str, Any]) -> dict[str, Mapping[str, Any]]:
    """The ``network_id`` → sub-document mapping of a sharded snapshot.

    Only the envelope is checked here; each sub-document gets its own
    header, fingerprint and capacity checks when its engine is restored.
    """
    _check_header(data, SHARDED_SNAPSHOT_KIND)
    shards = data.get("shards")
    if not isinstance(shards, dict):
        raise SnapshotError("sharded snapshot is missing its 'shards' mapping")
    return shards


# -- shared I/O -----------------------------------------------------------------------


def write_document(path: str, doc: Mapping[str, Any]) -> None:
    """Atomically write a snapshot document to ``path`` (write + rename)."""
    # Durable rename: fsync the temp file before the replace (so the data is
    # on disk before the name points at it) and fsync the parent directory
    # after (so the rename itself survives a crash). Directory fds are not
    # available everywhere; the directory sync is best-effort.
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    parent = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def read_document(path: str) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SnapshotError(f"snapshot {path} must be a JSON object")
    return doc
