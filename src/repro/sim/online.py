"""Online SFC-request arrivals over shared residual capacity (extension).

The paper embeds one flow into a fresh network; a provider actually faces a
*stream* of requests competing for the same instances and links. This
module is the synchronous driver over the shared
:class:`~repro.engine.core.EmbeddingEngine` — the same state machine the
embedding service runs behind its asyncio transport, so an offline replay
and a service run decide identically by construction:

* the network's remaining capacity lives in a
  :class:`~repro.network.state.ResidualState`;
* each arriving request is solved against the **residual network view**
  (``ResidualState.to_network()`` — capacities are what's left, saturated
  links/instances vanish), so every solver runs unmodified;
* an accepted embedding's resource usage (eq. 7/8 counts × rate) is
  reserved; a departing request releases exactly what it reserved.

This is the substrate for acceptance-ratio experiments
(`examples/online_arrivals.py`): under load, cost-aware embedding (MBBE)
also packs the network better than MINV/RANV, accepting more requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..embedding.base import Embedder, EmbeddingResult
from ..engine.core import EmbeddingEngine
from ..engine.rebalance import RebalanceConfig, RebalanceReport, Rebalancer
from ..engine.request import EmbeddingRequest
from ..faults.model import FaultEvent, FaultState
from ..faults.repair import RepairEngine, RepairOutcome
from ..network.cloud import CloudNetwork
from ..network.state import ResidualState
from ..utils.rng import RngStream

__all__ = ["SfcRequest", "OnlineStats", "OnlineSimulator"]

#: The one shared request type (kept under its historical sim-side name).
SfcRequest = EmbeddingRequest


@dataclass(frozen=True)
class OnlineStats:
    """Aggregate acceptance statistics."""

    arrivals: int
    accepted: int
    departed: int
    total_cost_accepted: float
    #: fault-time counters — all zero on a fault-free run.
    evicted: int = 0
    repairs_rerouted: int = 0
    repairs_reembedded: int = 0
    repair_cost_delta: float = 0.0

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of arrivals that were embedded."""
        return self.accepted / self.arrivals if self.arrivals else 1.0

    @property
    def active(self) -> int:
        """Requests currently holding resources."""
        return self.accepted - self.departed - self.evicted

    @property
    def survival_ratio(self) -> float:
        """Fraction of accepted requests never evicted by a fault."""
        return 1.0 - self.evicted / self.accepted if self.accepted else 1.0


class OnlineSimulator:
    """Admits/releases SFC requests against one shared cloud network.

    A thin synchronous wrapper over :class:`~repro.engine.core.EmbeddingEngine`
    — the authoritative state (ledger, fault state, repair ladder) and every
    decision live in the engine; this class only adapts its counters to the
    historical :class:`OnlineStats` surface.
    """

    def __init__(self, network: CloudNetwork, solver: Embedder) -> None:
        self.engine = EmbeddingEngine(network, solver)
        self.network = network
        self.solver = solver
        self._rebalancer: Rebalancer | None = None

    @property
    def state(self) -> ResidualState:
        """The authoritative residual capacity (owned by the engine's ledger)."""
        return self.engine.ledger.state

    @property
    def faults(self) -> FaultState:
        """The live fault state (pristine unless :meth:`apply_fault` was used)."""
        return self.engine.faults

    @property
    def repair_engine(self) -> RepairEngine:
        """The engine tracking embeddings and running the repair ladder."""
        return self.engine.repair_engine

    # -- arrivals -----------------------------------------------------------------

    def submit(self, request: SfcRequest, rng: RngStream = None) -> EmbeddingResult:
        """Try to embed one request on the residual network.

        On success the embedding's resources are reserved until
        :meth:`release` is called with the same request id.
        """
        return self.engine.submit(request, rng=rng)

    # -- departures -----------------------------------------------------------------

    def release(self, request_id: int) -> None:
        """Return all resources held by an accepted request."""
        self.engine.release(request_id)

    # -- faults --------------------------------------------------------------------

    def apply_fault(self, event: FaultEvent, rng: RngStream = None) -> list[RepairOutcome]:
        """Fold one fault event in, repairing every affected embedding.

        Failures immediately run the reroute → re-embed → evict ladder over
        the affected requests; recoveries just restore visibility (a later
        arrival sees the element again). Returns the repair outcomes.
        """
        return self.engine.apply_fault(event, rng=rng)

    # -- rebalancing ----------------------------------------------------------------

    def run_rebalance_cycle(
        self,
        config: RebalanceConfig | None = None,
        *,
        repair_in_flight: bool = False,
    ) -> RebalanceReport:
        """Run one guarded rebalance cycle against the live ledger.

        The simulator owns one :class:`~repro.engine.rebalance.Rebalancer`
        built on first use (``config`` applies then and is ignored on later
        calls), so cooldown state carries across cycles exactly as it does
        in the service. An offline replay that interleaves the same
        arrivals, departures, and cycle points as a service run therefore
        plans and applies the identical migrations — the decision-identity
        property ``tests/test_rebalance.py`` checks.
        """
        if self._rebalancer is None:
            self._rebalancer = Rebalancer(self.engine, config)
        return self._rebalancer.run_cycle(repair_in_flight=repair_in_flight)

    # -- introspection ------------------------------------------------------------------

    def active_requests(self) -> Iterator[int]:
        """Ids of requests currently holding resources."""
        return self.engine.active_ids()

    def stats(self) -> OnlineStats:
        """Acceptance statistics so far."""
        counters = self.engine.counters
        return OnlineStats(
            arrivals=int(counters["dispatched"]),
            accepted=int(counters["accepted"]),
            departed=int(counters["departed"]),
            total_cost_accepted=counters["total_cost_accepted"],
            evicted=int(counters["evictions"]),
            repairs_rerouted=int(counters["repairs_rerouted"]),
            repairs_reembedded=int(counters["repairs_reembedded"]),
            repair_cost_delta=counters["repair_cost_delta"],
        )
