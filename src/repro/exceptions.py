"""Exception hierarchy for the DAG-SFC reproduction library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Sub-hierarchies mirror the package layout: network errors,
SFC/model errors, embedding errors and solver errors.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "NetworkError",
    "NodeNotFoundError",
    "LinkNotFoundError",
    "DisconnectedNetworkError",
    "CapacityError",
    "LedgerError",
    "SfcError",
    "InvalidChainError",
    "InvalidDagError",
    "TransformError",
    "EmbeddingError",
    "InfeasibleEmbeddingError",
    "IncompleteEmbeddingError",
    "ConstraintViolationError",
    "SolverError",
    "NoSolutionError",
    "SearchExhaustedError",
    "IlpUnavailableError",
    "ServiceError",
    "ProtocolError",
    "ServiceUnavailable",
    "WalError",
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is out of its documented domain."""


# --------------------------------------------------------------------------
# Network substrate
# --------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for network-model errors."""


class NodeNotFoundError(NetworkError, KeyError):
    """A node id does not exist in the network."""

    def __init__(self, node: int) -> None:
        super().__init__(node)
        self.node = node

    def __str__(self) -> str:  # KeyError quotes its repr otherwise
        return f"node {self.node} does not exist in the network"


class LinkNotFoundError(NetworkError, KeyError):
    """A link (u, v) does not exist in the network."""

    def __init__(self, u: int, v: int) -> None:
        super().__init__((u, v))
        self.u = u
        self.v = v

    def __str__(self) -> str:
        return f"link ({self.u}, {self.v}) does not exist in the network"


class DisconnectedNetworkError(NetworkError):
    """An operation required a connected network but the graph is not."""


class CapacityError(NetworkError):
    """A reservation exceeded a link or VNF-instance capacity."""


class LedgerError(ConfigurationError):
    """A reservation-ledger operation used an invalid request id.

    Carries the offending ``request_id`` and a machine-readable ``code``
    (``"unknown_request"`` for a release of an id that is not active,
    ``"duplicate_request"`` for a reserve under an id that already is), so
    server paths can turn the failure into a typed rejection instead of
    parsing the message. Subclasses :class:`ConfigurationError` so existing
    callers that catch the broad class keep working.
    """

    def __init__(self, request_id: int, code: str, message: str) -> None:
        super().__init__(message)
        self.request_id = request_id
        self.code = code


# --------------------------------------------------------------------------
# SFC / DAG model
# --------------------------------------------------------------------------


class SfcError(ReproError):
    """Base class for service-function-chain model errors."""


class InvalidChainError(SfcError, ValueError):
    """A sequential SFC definition is malformed."""


class InvalidDagError(SfcError, ValueError):
    """A DAG-SFC definition violates the standardized layered form."""


class TransformError(SfcError):
    """The sequential chain → DAG-SFC transformation failed."""


# --------------------------------------------------------------------------
# Embedding
# --------------------------------------------------------------------------


class EmbeddingError(ReproError):
    """Base class for embedding-representation errors."""


class InfeasibleEmbeddingError(EmbeddingError):
    """An embedding violates a capacity constraint (paper eq. 2–3)."""


class IncompleteEmbeddingError(EmbeddingError):
    """An embedding misses a placement or a meta-path (paper eq. 4–6)."""


class ConstraintViolationError(EmbeddingError):
    """An embedding violates a registered pluggable constraint.

    Carries the ``constraint`` name (the registry kind, e.g. ``"delay"``)
    so referees and engines can report *which* plugin rejected the
    solution. Subclasses :class:`EmbeddingError`, so repair paths that
    treat any embedding error as "candidate unusable" handle violations
    without special-casing.
    """

    def __init__(self, constraint: str, message: str) -> None:
        super().__init__(message)
        self.constraint = constraint


# --------------------------------------------------------------------------
# Solvers
# --------------------------------------------------------------------------


class SolverError(ReproError):
    """Base class for solver failures."""


class NoSolutionError(SolverError):
    """The solver proved (or decided) that no feasible embedding exists."""


class SearchExhaustedError(SolverError):
    """A bounded search ran out of budget before finding any solution."""


class IlpUnavailableError(SolverError):
    """scipy.optimize.milp is unavailable in this environment."""


# --------------------------------------------------------------------------
# Embedding service
# --------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for embedding-service errors."""


class ProtocolError(ServiceError):
    """A wire message violates the JSON-lines service protocol."""


class ServiceUnavailable(ServiceError):
    """The service connection was lost or refused while a request was in flight.

    Raised by :class:`~repro.service.client.ServiceClient` on every in-flight
    call when the connection resets, hits EOF mid-request or fails a write,
    and on any call made after that; a caller tells a dead transport from a
    decision by this type. Never raised for structured rejections (those
    come back as :class:`~repro.service.client.SubmitOutcome`).
    """


class WalError(ServiceError):
    """A write-ahead log is corrupt, inconsistent, or replayed against the
    wrong state.

    Raised for broken fingerprint chains and mid-log corruption (a torn
    *tail* is tolerated and truncated instead), for header/identity
    mismatches, and when replaying a record diverges from the engine state
    it claims to describe.
    """
