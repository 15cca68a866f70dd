"""Canonical encodings of an engine's durable state.

The only durable artifact of a shard is its write-ahead log
(:mod:`repro.wal`). Its records share two encodings defined here:

* :func:`reservation_to_record` / :func:`reservation_from_record` — one
  reservation as sorted ``[node, type, amount]`` / ``[u, v, amount]``
  triples, the shape commit, repair and migrate records and ``checkpoint``
  records carry, and the shape the ledger fingerprint hashes;
* :func:`network_fingerprint` — a SHA-256 over the canonical substrate
  serialization. The log header stores it, so a log can never be replayed
  against the wrong network. The substrate itself is not logged: it is
  deterministic from its generator seed or archived via
  :mod:`repro.serialize`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

from ..network.cloud import CloudNetwork
from ..network.reservations import Reservation
from ..serialize import network_to_dict

__all__ = [
    "network_fingerprint",
    "reservation_to_record",
    "reservation_from_record",
]


def network_fingerprint(network: CloudNetwork) -> str:
    """SHA-256 of the canonical network serialization (restore guard)."""
    canonical = json.dumps(network_to_dict(network), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def reservation_to_record(request_id: int, reservation: Reservation) -> dict[str, Any]:
    """One reservation in canonical WAL form (sorted list triples)."""
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
