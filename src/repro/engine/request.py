"""The one request type every layer shares.

Historically the offline simulator and the service protocol each carried
their own request type with the same payload fields; keeping the two in
sync by hand was exactly the kind of duplication the engine extraction
removes. :class:`EmbeddingRequest` is the single source of truth now — trace
generation constructs it directly, the wire protocol decodes into it, and
the engine's lifecycle methods consume it.

The payload fields (``request_id``, ``dag``, ``source``, ``dest``, ``flow``,
``seed``, ``msg_id``) participate in equality; ``arrival_index`` is
transport bookkeeping (assigned at enqueue time by the server) and is
excluded, so decoding a wire message and re-stamping its arrival order never
changes request identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import FlowConfig
from ..constraints.base import ConstraintSet
from ..sfc.dag import DagSfc
from ..types import NodeId

__all__ = ["EmbeddingRequest"]


@dataclass(frozen=True)
class EmbeddingRequest:
    """One tenant request: a DAG-SFC between two endpoints at a given rate.

    ``seed`` feeds the solver's RNG stream so a service run can be replayed
    offline bit-for-bit; callers that omit it get an engine-derived seed.
    """

    request_id: int
    dag: DagSfc
    source: NodeId
    dest: NodeId
    flow: FlowConfig = field(default_factory=FlowConfig)
    seed: int | None = None
    #: protocol multiplexing id; 0 outside the service transport.
    msg_id: int = 0
    #: arrival order within one engine (assigned at enqueue time).
    arrival_index: int = field(default=0, compare=False)
    #: registered extra constraints (delay budget, anti-affinity, zones, …);
    #: the empty set is the constraint-free historical behaviour. Participates
    #: in equality: two requests under different rules are different requests.
    constraints: ConstraintSet = ConstraintSet.EMPTY

    @property
    def rate(self) -> float:
        """The flow rate (shorthand for ``flow.rate``)."""
        return self.flow.rate
