"""The graded recovery ladder: reroute, re-embed, evict.

:class:`RepairEngine` is the *planner* of fault-time repairs. The
:class:`~repro.engine.core.EmbeddingEngine` tracks each accepted embedding;
when a fault event lands it asks the ledger which requests touch a dead
element and, one request at a time, has the planner assess the damage
(:mod:`repro.faults.impact`) and walk the request down the ladder:

1. **local reroute** — placements intact, only real-paths broken: replace
   them with cheapest feasible detours (:func:`repro.solvers.reembed.rebuild_paths`);
2. **full re-embed** — placements lost: run the configured solver on the
   degraded residual view, pinned to the surviving placements first
   (:func:`repro.solvers.reembed.reembed`);
3. **structured eviction** — endpoints dead or no rung succeeded: the
   request's resources stay released and the caller gets an explicit
   :class:`RepairOutcome` to notify the tenant with.

The planner never mutates shared state. It plans against a scratch copy of
the residual state in which only the request's own reservation has been
returned, and hands back a :class:`~repro.wal.records.RepairEffect`: the
replacement reservation (exactly the new embedding's eq. 7/8 amounts) or the
eviction. The engine applies that effect like any other — release-old +
reserve-new on the ledger — so fail → repair → recover cycles conserve
capacity by construction, and each plan sees the previous repair.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ..config import FlowConfig
from ..constraints.base import ConstraintSet
from ..embedding.base import Embedder
from ..embedding.costing import CostBreakdown
from ..embedding.mapping import Embedding
from ..exceptions import CapacityError
from ..network.reservations import Reservation, ReservationLedger
from ..solvers.reembed import rebuild_paths, reembed
from ..utils.rng import RngStream
from .impact import assess_impact
from .model import FaultState

if TYPE_CHECKING:
    from ..wal.records import RepairEffect

__all__ = ["RepairAction", "RepairOutcome", "EmbeddedRequest", "RepairEngine"]


class RepairAction(enum.Enum):
    """Terminal state of one repair attempt (the notification vocabulary)."""

    REROUTED = "rerouted"
    RE_EMBEDDED = "re_embedded"
    EVICTED = "evicted"


@dataclass(frozen=True)
class RepairOutcome:
    """What happened to one affected request, with its cost accounting."""

    request_id: int
    action: RepairAction
    #: objective value of the embedding before the fault.
    old_cost: float
    #: objective value after repair (0.0 when evicted).
    new_cost: float
    #: ladder rungs attempted, in order ("reroute", "re_embed").
    attempts: tuple[str, ...]
    detail: str
    #: wall-clock seconds spent repairing this request.
    duration: float

    @property
    def cost_delta(self) -> float:
        """Repair premium (new − old); meaningful for non-evicted outcomes."""
        return self.new_cost - self.old_cost

    @property
    def survived(self) -> bool:
        """True when the request still holds resources after the repair."""
        return self.action is not RepairAction.EVICTED


@dataclass(frozen=True)
class EmbeddedRequest:
    """The tracked solution of one admitted request (repair needs the paths)."""

    request_id: int
    embedding: Embedding
    flow: FlowConfig
    cost: float
    #: the request's registered constraints; repairs must keep honoring them.
    constraints: ConstraintSet = ConstraintSet.EMPTY


class RepairEngine:
    """Plans the reroute → re-embed → evict ladder for affected requests.

    Holds read-only references to the engine's ledger, fault state and
    tracked embeddings; :meth:`plan` returns an effect and mutates nothing.
    """

    def __init__(
        self,
        ledger: ReservationLedger,
        solver: Embedder,
        faults: FaultState,
        tracked: Mapping[int, EmbeddedRequest],
    ) -> None:
        self.ledger = ledger
        self.solver = solver
        self.faults = faults
        self._tracked = tracked

    def tracked(self, request_id: int) -> EmbeddedRequest | None:
        """The tracked record, or None."""
        return self._tracked.get(request_id)

    def tracked_count(self) -> int:
        """Number of embeddings currently tracked."""
        return len(self._tracked)

    # -- the ladder ------------------------------------------------------------------

    def plan(self, request_id: int, rng: RngStream = None) -> RepairEffect | None:
        """The repair of one active request, or None when it is undamaged."""
        # Local import: the record vocabulary itself imports this module.
        from ..wal.records import RepairEffect

        start = time.perf_counter()
        old_cost = self.ledger.reservation(request_id).cost
        record = self._tracked.get(request_id)
        attempts: list[str] = []

        def outcome(action: RepairAction, new_cost: float, detail: str) -> RepairOutcome:
            return RepairOutcome(
                request_id=request_id,
                action=action,
                old_cost=old_cost,
                new_cost=new_cost,
                attempts=tuple(attempts),
                detail=detail,
                duration=time.perf_counter() - start,
            )

        if record is None:
            # Amounts alone cannot be rerouted; the only safe terminal state
            # is an explicit eviction (resources returned, tenant notified).
            return RepairEffect(
                outcome(RepairAction.EVICTED, 0.0, "no tracked embedding to repair")
            )
        impact = assess_impact(request_id, record.embedding, self.faults)
        if not impact.affected:
            return None
        if impact.endpoints_dead:
            return RepairEffect(outcome(RepairAction.EVICTED, 0.0, impact.describe()))

        # Detours and re-embeds must see the request's own capacity as
        # available: plan on a scratch state with only its reservation
        # returned.
        scratch = self.ledger.credited(request_id)
        view = scratch.to_network(self.faults)

        def survivor(
            action: RepairAction, embedding: Embedding, cost: CostBreakdown
        ) -> RepairEffect | None:
            reservation = Reservation.from_counts(
                cost.alpha_vnf, cost.alpha_link, rate=record.flow.rate, cost=cost.total
            )
            try:
                reservation.claim(scratch)
            except CapacityError:
                return None  # fall through to the next rung
            return RepairEffect(
                outcome(action, cost.total, impact.describe()),
                flow=record.flow,
                reservation=reservation,
                embedding=embedding,
                constraints=record.constraints,
            )

        if impact.placements_intact:
            attempts.append("reroute")
            rerouted = rebuild_paths(
                view,
                record.embedding,
                record.flow,
                broken_inter=impact.broken_inter,
                broken_inner=impact.broken_inner,
                constraints=record.constraints,
            )
            if rerouted is not None:
                effect = survivor(RepairAction.REROUTED, *rerouted)
                if effect is not None:
                    return effect

        attempts.append("re_embed")
        dead = set(impact.dead_placements)
        pinned = {
            pos: node
            for pos, node in record.embedding.placements.items()
            if pos not in dead
        }
        result = reembed(
            self.solver,
            view,
            record.embedding.dag,
            record.embedding.source,
            record.embedding.dest,
            record.flow,
            pinned=pinned,
            rng=rng,
            constraints=record.constraints,
        )
        if result.success and result.embedding is not None and result.cost is not None:
            effect = survivor(RepairAction.RE_EMBEDDED, result.embedding, result.cost)
            if effect is not None:
                return effect
        return RepairEffect(outcome(RepairAction.EVICTED, 0.0, impact.describe()))
