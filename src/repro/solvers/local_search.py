"""Local-search refinement of embeddings (extension).

A post-optimization pass over any solver's output: repeatedly try moving a
single position (VNF or merger) to another hosting node, re-route all
meta-paths with :func:`~repro.solvers.routing.route_min_cost`, and accept
the first strictly improving feasible move, until a round finds nothing
(1-move local optimum) or the round budget runs out.

Because moves re-route the whole embedding, a move can pay off in subtle
ways the layer-local BBE/MBBE search cannot see — e.g. relocating layer 2's
merger so layer 3's inter-layer multicast shortens. The refiner composes
with any base algorithm through :class:`RefinedEmbedder` (``MINV+LS`` is
registered; wrap any other base directly, e.g.
``RefinedEmbedder(MbbeEmbedder())``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..config import FlowConfig
from ..embedding.base import Embedder
from ..embedding.costing import compute_cost
from ..embedding.feasibility import verify_embedding
from ..embedding.mapping import Embedding
from ..exceptions import EmbeddingError, NoSolutionError
from ..network.cloud import CloudNetwork
from ..network.shortest import dijkstra
from ..sfc.dag import DagSfc
from ..sfc.stretch import StretchedSfc
from ..types import NodeId
from ..utils.rng import RngStream
from ..utils.tolerance import lt as tolerant_lt
from .routing import route_min_cost

__all__ = ["LocalSearchRefiner", "RefinedEmbedder"]


@dataclass
class LocalSearchRefiner:
    """First-improvement single-move local search over placements.

    Parameters
    ----------
    max_rounds:
        Full passes over all positions (each pass may accept many moves).
    neighbor_cap:
        Alternative hosting nodes tried per position, cheapest by
        (rental price + distance from the current node) first.
    """

    max_rounds: int = 3
    neighbor_cap: int = 8

    def refine(
        self,
        network: CloudNetwork,
        embedding: Embedding,
        flow: FlowConfig,
    ) -> tuple[Embedding, float, int]:
        """Improve ``embedding``; return (best embedding, its cost, #moves).

        The input embedding is assumed feasible; the output always is (every
        accepted move is verified).
        """
        s = StretchedSfc(embedding.dag)
        best = embedding
        best_cost = compute_cost(network, best, flow).total
        placements = dict(embedding.placements)
        moves = 0

        for _ in range(self.max_rounds):
            improved = False
            for pos in sorted(placements):
                current = placements[pos]
                vnf_type = s.vnf_at(pos)
                dist = dijkstra(network.graph, current)
                candidates = [
                    n
                    for n in network.nodes_with(vnf_type)
                    if n != current and dist.reachable(n)
                ]
                candidates.sort(
                    key=lambda n: (
                        network.rental_price(n, vnf_type) + dist.cost_to(n),
                        n,
                    )
                )
                for candidate in candidates[: self.neighbor_cap]:
                    placements[pos] = candidate
                    try:
                        trial = route_min_cost(
                            network,
                            embedding.dag,
                            embedding.source,
                            embedding.dest,
                            placements,
                            flow,
                        )
                        verify_embedding(network, trial, flow)
                    except (NoSolutionError, EmbeddingError):
                        placements[pos] = current
                        continue
                    cost = compute_cost(network, trial, flow).total
                    if tolerant_lt(cost, best_cost):
                        best, best_cost = trial, cost
                        moves += 1
                        improved = True
                        break  # first improvement; keep the new placement
                    placements[pos] = current
            if not improved:
                break
        return best, best_cost, moves


class RefinedEmbedder(Embedder):
    """Any base solver followed by local-search refinement."""

    def __init__(
        self,
        base: Embedder,
        *,
        max_rounds: int = 3,
        neighbor_cap: int = 8,
    ) -> None:
        self.base = base
        self.refiner = LocalSearchRefiner(max_rounds=max_rounds, neighbor_cap=neighbor_cap)
        self.name = f"{base.name}+LS"

    def _solve(
        self,
        network: CloudNetwork,
        dag: DagSfc,
        source: NodeId,
        dest: NodeId,
        flow: FlowConfig,
        rng: RngStream,
        stats: dict[str, Any],
    ) -> Embedding:
        base_stats: dict[str, Any] = {}
        embedding = self.base._solve(network, dag, source, dest, flow, rng, base_stats)
        verify_embedding(network, embedding, flow)
        base_cost = compute_cost(network, embedding, flow).total
        refined, cost, moves = self.refiner.refine(network, embedding, flow)
        stats["base"] = base_stats
        stats["base_cost"] = base_cost
        stats["ls_moves"] = moves
        stats["ls_gain"] = base_cost - cost
        return refined
