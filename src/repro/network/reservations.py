"""Per-request reservation bookkeeping shared by offline replay and the server.

Both offline trace replay (:mod:`repro.sim.trace`) and the
embedding service (:mod:`repro.service.server`) face the same accounting
problem: an accepted request must hold exactly the resources its embedding
consumes (eq. 7/8 reuse counts × flow rate) until it departs, and a
departure must return exactly what was reserved. :class:`ReservationLedger`
is that single implementation — a map ``request id → Reservation`` layered
on a :class:`~repro.network.state.ResidualState`, with all-or-nothing
reserve semantics (every amount is checked before any is written, so a
:class:`~repro.exceptions.CapacityError` never leaves a partial claim).

The ledger deliberately stores *amounts*, not embeddings: a reservation is
the minimal record needed to undo an admission, which is also exactly what
a write-ahead log checkpoint has to persist (:mod:`repro.engine.state_store`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Mapping

from ..exceptions import LedgerError
from ..types import EdgeKey, NodeId, VnfTypeId
from .state import ResidualState

__all__ = ["Reservation", "ReservationLedger"]


@dataclass(frozen=True)
class Reservation:
    """Resources held by one accepted request, in absolute rate units."""

    #: (node, category) -> reserved processing rate (eq. 7 count × rate).
    vnf: Mapping[tuple[NodeId, VnfTypeId], float]
    #: link -> reserved bandwidth (eq. 8 charged uses × rate).
    links: Mapping[EdgeKey, float]
    #: objective value of the embedding that produced this reservation.
    cost: float

    @classmethod
    def from_counts(
        cls,
        vnf_counts: Mapping[tuple[NodeId, VnfTypeId], int],
        link_counts: Mapping[EdgeKey, int],
        *,
        rate: float,
        cost: float,
    ) -> "Reservation":
        """Scale eq. 7/8 reuse counts by the flow rate into absolute amounts."""
        return cls(
            vnf={key: count * rate for key, count in vnf_counts.items()},
            links={key: count * rate for key, count in link_counts.items()},
            cost=cost,
        )

    def claim(self, state: ResidualState) -> None:
        """Reserve these amounts on ``state``, all or nothing.

        Every amount is checked before any is written, so a
        :class:`CapacityError` (or an unknown link or instance) leaves
        ``state`` untouched.
        """
        for (node, vnf_type), amount in self.vnf.items():
            state.check_vnf(node, vnf_type, amount)
        for (u, v), amount in self.links.items():
            state.check_link(u, v, amount)
        for (node, vnf_type), amount in self.vnf.items():
            state.reserve_vnf(node, vnf_type, amount)
        for (u, v), amount in self.links.items():
            state.reserve_link(u, v, amount)

    def unclaim(self, state: ResidualState) -> None:
        """Return these amounts to ``state`` (the inverse of :meth:`claim`)."""
        for (node, vnf_type), amount in self.vnf.items():
            state.release_vnf(node, vnf_type, amount)
        for (u, v), amount in self.links.items():
            state.release_link(u, v, amount)


class ReservationLedger:
    """Request-keyed reserve/release accounting over a residual state."""

    def __init__(self, state: ResidualState) -> None:
        self.state = state
        self._active: dict[int, Reservation] = {}

    # -- queries -----------------------------------------------------------------

    def is_active(self, request_id: int) -> bool:
        """True while ``request_id`` holds resources."""
        return request_id in self._active

    def active_ids(self) -> Iterator[int]:
        """Ids of requests currently holding resources (sorted)."""
        return iter(sorted(self._active))

    def reservation(self, request_id: int) -> Reservation:
        """The reservation held by an active request."""
        try:
            return self._active[request_id]
        except KeyError:
            raise LedgerError(
                request_id,
                "unknown_request",
                f"request id {request_id} is not active",
            ) from None

    def reservations(self) -> Iterator[tuple[int, Reservation]]:
        """(request id, reservation) pairs, sorted by id (checkpoint order)."""
        return iter(sorted(self._active.items()))

    def __len__(self) -> int:
        return len(self._active)

    def credited(self, request_id: int) -> ResidualState:
        """A scratch copy of the state with ``request_id``'s reservation returned.

        The repair and rebalance planners solve on it, so the request's own
        capacity counts as free; the credit uses the very float operations
        the applied release does. The ledger itself is not touched.
        """
        scratch = self.state.snapshot()
        self.reservation(request_id).unclaim(scratch)
        return scratch

    def affected_by(
        self,
        *,
        nodes: Collection[NodeId] = (),
        links: Collection[EdgeKey] = (),
        instances: Collection[tuple[NodeId, VnfTypeId]] = (),
    ) -> list[int]:
        """Ids of active requests holding resources on any given element.

        This is the ledger-level impact query of the fault subsystem: a
        request is *affected* by a substrate failure when its reservation
        touches a dead node (a VNF amount on it, or bandwidth on an incident
        link), a dead link, or a dead VNF instance. Link keys must be
        canonical (:func:`repro.types.edge_key`). Returns sorted ids.
        """
        dead_nodes = set(nodes)
        dead_links = set(links)
        dead_instances = set(instances)
        hit: list[int] = []
        for request_id, reservation in self._active.items():
            touched = any(
                node in dead_nodes or (node, vnf_type) in dead_instances
                for node, vnf_type in reservation.vnf
            ) or any(
                key in dead_links or key[0] in dead_nodes or key[1] in dead_nodes
                for key in reservation.links
            )
            if touched:
                hit.append(request_id)
        return sorted(hit)

    # -- reserve / release ---------------------------------------------------------

    def reserve(self, request_id: int, reservation: Reservation) -> None:
        """Claim a reservation atomically under ``request_id``.

        Raises :class:`LedgerError` (code ``"duplicate_request"``) when the
        id is already active and :class:`CapacityError` when the residual
        network cannot hold the amounts; the state is untouched on failure.
        """
        if request_id in self._active:
            raise LedgerError(
                request_id,
                "duplicate_request",
                f"request id {request_id} is already active",
            )
        reservation.claim(self.state)
        self._active[request_id] = reservation

    def release(self, request_id: int) -> Reservation:
        """Return every resource held by ``request_id``.

        Raises :class:`LedgerError` (code ``"unknown_request"``) for an
        unknown (or already released) id; the state is untouched in that case.
        """
        try:
            reservation = self._active.pop(request_id)
        except KeyError:
            raise LedgerError(
                request_id,
                "unknown_request",
                f"request id {request_id} is not active",
            ) from None
        reservation.unclaim(self.state)
        return reservation
