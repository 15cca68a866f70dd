"""Record vocabulary of the engine write-ahead log.

The log captures the engine's *state transitions*, not its inputs: record 0
is a ``header`` naming the log's identity (substrate fingerprint, solver
name, engine seed — checked before any replay so a log can never be applied
to the wrong engine), and every later record is either one frozen
**effect** value, the exact change an
:class:`~repro.engine.core.EmbeddingEngine` applied —
:class:`CommitEffect`, :class:`ReleaseEffect`, :class:`FaultEffect`,
:class:`RepairEffect` and :class:`MigrateEffect` — or a ``checkpoint``: the
engine's whole replayable state at that seq, which recovery loads instead of
replaying everything before it (see
:meth:`~repro.engine.core.EmbeddingEngine.checkpoint`). Replay re-applies
effects deterministically without re-running solvers; the engine folds every
effect in through one method, live and on replay alike.

Each effect's ``to_payload()`` is the record body; ``from_payload()``
validates a body and raises :class:`~repro.exceptions.WalError` on
malformed input. Payload codecs reuse the canonical reservation shape from
:mod:`repro.engine.state_store` and :mod:`repro.serialize`, so a ledger
fingerprint computed from replayed state matches one computed from live
state byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterator, Mapping, TypeVar, Union

from ..config import FlowConfig
from ..constraints.base import ConstraintSet
from ..constraints.registry import constraints_from_specs
from ..embedding.mapping import Embedding
from ..engine.state_store import (
    network_fingerprint,
    reservation_from_record,
    reservation_to_record,
)
from ..exceptions import WalError
from ..faults.model import FaultAction, FaultEvent, FaultKind, FaultTarget
from ..faults.repair import EmbeddedRequest, RepairAction, RepairOutcome
from ..network.reservations import Reservation, ReservationLedger
from ..serialize import embedding_from_dict, embedding_to_dict

__all__ = [
    "WAL_FORMAT",
    "WAL_KIND",
    "WAL_VERSION",
    "HEADER",
    "COMMIT",
    "RELEASE",
    "FAULT",
    "REPAIR",
    "MIGRATE",
    "CHECKPOINT",
    "RECORD_TYPES",
    "CommitEffect",
    "ReleaseEffect",
    "FaultEffect",
    "RepairEffect",
    "MigrateEffect",
    "Effect",
    "decode_effect",
    "header_payload",
    "check_header",
    "flow_from_payload",
    "embedding_from_payload",
    "constraints_from_payload",
    "tracked_to_payload",
    "tracked_from_payload",
    "ledger_fingerprint",
]

WAL_FORMAT = "repro.dag-sfc"
WAL_KIND = "engine-wal"
WAL_VERSION = 1

HEADER = "header"
COMMIT = "commit"
RELEASE = "release"
FAULT = "fault"
REPAIR = "repair"
MIGRATE = "migrate"
CHECKPOINT = "checkpoint"
RECORD_TYPES = (HEADER, COMMIT, RELEASE, FAULT, REPAIR, MIGRATE, CHECKPOINT)

_T = TypeVar("_T")


# -- header ---------------------------------------------------------------------------


def header_payload(
    *,
    network_fingerprint: str,
    solver: str,
    seed: int,
    network_id: str | None = None,
) -> dict[str, Any]:
    """The identity payload of record 0."""
    return {
        "format": WAL_FORMAT,
        "kind": WAL_KIND,
        "version": WAL_VERSION,
        "network_fingerprint": network_fingerprint,
        "solver": solver,
        "seed": int(seed),
        "network_id": network_id,
    }


def check_header(
    payload: Mapping[str, Any], *, network_fingerprint: str | None = None
) -> None:
    """Validate a header payload (format/kind/version, optional substrate)."""
    if payload.get("format") != WAL_FORMAT or payload.get("kind") != WAL_KIND:
        raise WalError(f"not a {WAL_FORMAT} {WAL_KIND} log")
    if payload.get("version") != WAL_VERSION:
        raise WalError(
            f"unsupported WAL version {payload.get('version')!r} "
            f"(expected {WAL_VERSION})"
        )
    if network_fingerprint is not None:
        have = payload.get("network_fingerprint")
        if have != network_fingerprint:
            raise WalError(
                "WAL was written against a different network "
                f"(fingerprint {str(have)[:12]}… != {network_fingerprint[:12]}…)"
            )


# -- field codecs ---------------------------------------------------------------------


@contextmanager
def _decoding(kind: str) -> Iterator[None]:
    """Turn the parse errors of one record body into a :class:`WalError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WalError(f"malformed {kind} record payload: {exc!r}") from None


def _optional(codec: Callable[[Any], _T], value: Any) -> _T | None:
    return None if value is None else codec(value)


def _bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a boolean, got {value!r}")
    return value


def _flow_payload(flow: FlowConfig) -> dict[str, Any]:
    return {"size": flow.size, "rate": flow.rate}


def flow_from_payload(payload: Mapping[str, Any]) -> FlowConfig:
    try:
        return FlowConfig(size=float(payload["size"]), rate=float(payload["rate"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WalError(f"malformed flow in WAL record: {exc}") from None


def _reservation_from_payload(payload: Mapping[str, Any]) -> Reservation:
    try:
        return reservation_from_record(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise WalError(f"malformed reservation in WAL record: {exc}") from None


def embedding_from_payload(payload: Mapping[str, Any]) -> Embedding:
    return embedding_from_dict(dict(payload))


def constraints_from_payload(payload: Mapping[str, Any]) -> ConstraintSet:
    """The record's constraint set; absent field → the empty set.

    Pre-constraint logs carry no ``constraints`` key, so they replay with
    the historical (unconstrained) behaviour.
    """
    specs = payload.get("constraints")
    if not specs:
        return ConstraintSet.EMPTY
    try:
        return constraints_from_specs(specs)
    except Exception as exc:
        raise WalError(f"malformed constraints in WAL record: {exc}") from None


def _state_payload(request_id: int, effect: Any) -> dict[str, Any]:
    """The flow/reservation/embedding/constraints fields of a stateful effect."""
    out: dict[str, Any] = {
        "flow": _optional(_flow_payload, effect.flow),
        "reservation": _optional(
            lambda r: reservation_to_record(request_id, r), effect.reservation
        ),
        "embedding": _optional(embedding_to_dict, effect.embedding),
    }
    # Only present when the request carried constraints, so constraint-free
    # logs stay byte-identical to the previous format (and readable by it).
    if effect.constraints:
        out["constraints"] = effect.constraints.specs()
    return out


def _state_fields(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Decode :func:`_state_payload`'s fields into effect keyword arguments."""
    return {
        "flow": _optional(flow_from_payload, payload["flow"]),
        "reservation": _optional(_reservation_from_payload, payload["reservation"]),
        "embedding": _optional(embedding_from_payload, payload["embedding"]),
        "constraints": constraints_from_payload(payload),
    }


# -- effects --------------------------------------------------------------------------


@dataclass(frozen=True)
class CommitEffect:
    """One decision: an accepted reservation + embedding, or a rejection.

    Rejections are logged too, so the decision counter replays exactly;
    wall-clock solve runtime is deliberately not part of the effect.
    """

    type: ClassVar[str] = COMMIT

    request_id: int
    msg_id: int
    decision_index: int
    flow: FlowConfig
    accepted: bool = False
    #: structured rejection code; None when accepted.
    code: str | None = None
    reason: str | None = None
    total_cost: float | None = None
    vnf_cost: float | None = None
    link_cost: float | None = None
    commit_index: int | None = None
    reservation: Reservation | None = None
    embedding: Embedding | None = None
    constraints: ConstraintSet = ConstraintSet.EMPTY

    def to_payload(self) -> dict[str, Any]:
        return {
            "request_id": int(self.request_id),
            "msg_id": int(self.msg_id),
            "accepted": bool(self.accepted),
            "decision_index": int(self.decision_index),
            "code": self.code,
            "reason": self.reason,
            "total_cost": self.total_cost,
            "vnf_cost": self.vnf_cost,
            "link_cost": self.link_cost,
            "commit_index": self.commit_index,
            **_state_payload(self.request_id, self),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "CommitEffect":
        with _decoding(COMMIT):
            effect = cls(
                request_id=int(payload["request_id"]),
                msg_id=int(payload["msg_id"]),
                decision_index=int(payload["decision_index"]),
                accepted=_bool(payload["accepted"]),
                code=_optional(str, payload["code"]),
                reason=_optional(str, payload["reason"]),
                total_cost=_optional(float, payload["total_cost"]),
                vnf_cost=_optional(float, payload["vnf_cost"]),
                link_cost=_optional(float, payload["link_cost"]),
                commit_index=_optional(int, payload["commit_index"]),
                **_state_fields(payload),
            )
        if effect.flow is None:
            raise WalError("commit record carries no flow")
        if effect.accepted and (effect.reservation is None or effect.total_cost is None):
            raise WalError("accepted commit record carries no reservation or cost")
        return effect


@dataclass(frozen=True)
class ReleaseEffect:
    """One departure: the request's whole reservation is returned."""

    type: ClassVar[str] = RELEASE

    request_id: int

    def to_payload(self) -> dict[str, Any]:
        return {"request_id": int(self.request_id)}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ReleaseEffect":
        with _decoding(RELEASE):
            return cls(int(payload["request_id"]))


@dataclass(frozen=True)
class FaultEffect:
    """One *effective* fault event, in the fault-script wire vocabulary.

    Events that change no element's liveness are neither applied nor logged.
    """

    type: ClassVar[str] = FAULT

    event: FaultEvent
    #: the failure drew its repair seed from the engine's chaos stream (every
    #: failure the engine logs; False only in older, caller-seeded logs).
    auto_seed: bool = False

    def to_payload(self) -> dict[str, Any]:
        return {
            "time": self.event.time,
            "action": self.event.action.value,
            "target": self.event.target.kind.value,
            "ids": list(self.event.target.ids),
            "auto_seed": bool(self.auto_seed),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "FaultEffect":
        with _decoding(FAULT):
            event = FaultEvent(
                time=float(payload["time"]),
                action=FaultAction(payload["action"]),
                target=FaultTarget(
                    FaultKind(payload["target"]),
                    tuple(int(i) for i in payload["ids"]),
                ),
            )
            return cls(event, auto_seed=bool(payload.get("auto_seed")))


@dataclass(frozen=True)
class RepairEffect:
    """One repair: the replacement state for a survivor, or an eviction.

    ``flow``/``reservation``/``embedding`` are None exactly when the request
    was evicted.
    """

    type: ClassVar[str] = REPAIR

    outcome: RepairOutcome
    flow: FlowConfig | None = None
    reservation: Reservation | None = None
    embedding: Embedding | None = None
    constraints: ConstraintSet = ConstraintSet.EMPTY

    def to_payload(self) -> dict[str, Any]:
        outcome = self.outcome
        return {
            "request_id": int(outcome.request_id),
            "action": outcome.action.value,
            "old_cost": float(outcome.old_cost),
            "new_cost": float(outcome.new_cost),
            "attempts": list(outcome.attempts),
            "detail": outcome.detail,
            "duration": float(outcome.duration),
            **_state_payload(outcome.request_id, self),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RepairEffect":
        with _decoding(REPAIR):
            outcome = RepairOutcome(
                request_id=int(payload["request_id"]),
                action=RepairAction(payload["action"]),
                old_cost=float(payload["old_cost"]),
                new_cost=float(payload["new_cost"]),
                attempts=tuple(str(a) for a in payload["attempts"]),
                detail=str(payload["detail"]),
                duration=float(payload["duration"]),
            )
            effect = cls(outcome, **_state_fields(payload))
        if outcome.survived != (effect.reservation is not None):
            raise WalError(
                f"repair record action {outcome.action.value!r} disagrees with "
                "its reservation"
            )
        return effect


@dataclass(frozen=True)
class MigrateEffect:
    """One applied rebalancer move: the replacement reservation/embedding.

    Applied as an atomic release-old + reserve-new on the same request id —
    there is never a window where the request is absent from the ledger.
    Conflicts rolled back at apply time change nothing and leave no record.
    """

    type: ClassVar[str] = MIGRATE

    request_id: int
    old_cost: float
    new_cost: float
    flow: FlowConfig
    reservation: Reservation
    embedding: Embedding
    constraints: ConstraintSet = ConstraintSet.EMPTY

    def to_payload(self) -> dict[str, Any]:
        return {
            "request_id": int(self.request_id),
            "old_cost": float(self.old_cost),
            "new_cost": float(self.new_cost),
            **_state_payload(self.request_id, self),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "MigrateEffect":
        with _decoding(MIGRATE):
            effect = cls(
                request_id=int(payload["request_id"]),
                old_cost=float(payload["old_cost"]),
                new_cost=float(payload["new_cost"]),
                **_state_fields(payload),
            )
        if effect.flow is None or effect.reservation is None or effect.embedding is None:
            raise WalError("migrate record carries no replacement state")
        return effect


Effect = Union[CommitEffect, ReleaseEffect, FaultEffect, RepairEffect, MigrateEffect]

_EFFECTS: dict[str, Any] = {
    cls.type: cls
    for cls in (CommitEffect, ReleaseEffect, FaultEffect, RepairEffect, MigrateEffect)
}


def decode_effect(record_type: str, payload: Mapping[str, Any]) -> Effect:
    """The effect an effect record carries (raises :class:`WalError`)."""
    try:
        effect_cls = _EFFECTS[record_type]
    except KeyError:
        raise WalError(f"unknown WAL record type {record_type!r}") from None
    if not isinstance(payload, Mapping):
        raise WalError(f"{record_type} record payload is not an object")
    return effect_cls.from_payload(payload)


# -- tracked embeddings (checkpoint records) ------------------------------------------


def tracked_to_payload(entry: EmbeddedRequest) -> dict[str, Any]:
    """One tracked embedding, in the commit record's field codecs (its
    reservation lives in the checkpoint's ``reservations`` list)."""
    out = {
        "request_id": int(entry.request_id),
        "cost": entry.cost,
        "flow": _flow_payload(entry.flow),
        "embedding": embedding_to_dict(entry.embedding),
    }
    if entry.constraints:
        out["constraints"] = entry.constraints.specs()
    return out


def tracked_from_payload(payload: Mapping[str, Any]) -> EmbeddedRequest:
    with _decoding("tracked embedding"):
        return EmbeddedRequest(
            request_id=int(payload["request_id"]),
            embedding=embedding_from_payload(payload["embedding"]),
            flow=flow_from_payload(payload["flow"]),
            cost=float(payload["cost"]),
            constraints=constraints_from_payload(payload),
        )


# -- state fingerprint ----------------------------------------------------------------


def ledger_fingerprint(ledger: ReservationLedger) -> str:
    """SHA-256 over the canonical ledger state (substrate + reservations).

    The recovery correctness oracle: a replayed engine must reproduce the
    exact fingerprint of the engine whose log it consumed.
    """
    doc = {
        "network": network_fingerprint(ledger.state.network),
        "reservations": [
            reservation_to_record(request_id, reservation)
            for request_id, reservation in ledger.reservations()
        ],
    }
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
