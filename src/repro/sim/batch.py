"""Offline batch embedding: many requests, one shared network.

Between the paper's single-flow model and online arrivals sits the
*batch* setting: a set of requests known upfront, admitted one at a time
onto shared residual capacity. Admission **order** then matters — a greedy
order can strand capacity. This module embeds a batch under pluggable
ordering strategies and reports acceptance and total cost, reusing the
residual-view mechanism of :class:`~repro.engine.core.EmbeddingEngine`.

Orderings provided (all deterministic given the request list):

* ``fifo`` — submission order;
* ``smallest_first`` — fewest positions first (packs easy ones early);
* ``largest_first`` — most positions first (hard ones while capacity lasts);
* ``shortest_first`` — smallest source–destination hop distance first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..embedding.base import Embedder
from ..engine.core import EmbeddingEngine
from ..engine.request import EmbeddingRequest
from ..exceptions import ConfigurationError
from ..network.cloud import CloudNetwork
from ..network.shortest import hop_distances
from ..utils.rng import RngStream

__all__ = ["BatchOutcome", "embed_batch", "ORDERINGS"]


@dataclass(frozen=True)
class BatchOutcome:
    """Result of embedding one batch."""

    accepted_ids: tuple[int, ...]
    rejected_ids: tuple[int, ...]
    total_cost: float
    order: tuple[int, ...]

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of the batch that was embedded."""
        n = len(self.accepted_ids) + len(self.rejected_ids)
        return len(self.accepted_ids) / n if n else 1.0


def _order_fifo(network: CloudNetwork, requests: Sequence[EmbeddingRequest]) -> list[int]:
    return list(range(len(requests)))


def _order_smallest_first(network: CloudNetwork, requests: Sequence[EmbeddingRequest]) -> list[int]:
    return sorted(
        range(len(requests)),
        key=lambda i: (requests[i].dag.num_positions, i),
    )


def _order_largest_first(network: CloudNetwork, requests: Sequence[EmbeddingRequest]) -> list[int]:
    return sorted(
        range(len(requests)),
        key=lambda i: (-requests[i].dag.num_positions, i),
    )


def _order_shortest_first(network: CloudNetwork, requests: Sequence[EmbeddingRequest]) -> list[int]:
    def span(req: EmbeddingRequest) -> int:
        dist = hop_distances(network.graph, req.source)
        return dist.get(req.dest, 10**9)

    spans = [span(r) for r in requests]
    return sorted(range(len(requests)), key=lambda i: (spans[i], i))


ORDERINGS: dict[str, Callable[[CloudNetwork, Sequence[EmbeddingRequest]], list[int]]] = {
    "fifo": _order_fifo,
    "smallest_first": _order_smallest_first,
    "largest_first": _order_largest_first,
    "shortest_first": _order_shortest_first,
}


def embed_batch(
    network: CloudNetwork,
    requests: Sequence[EmbeddingRequest],
    solver: Embedder,
    *,
    ordering: str = "fifo",
    rng: RngStream = None,
) -> BatchOutcome:
    """Admit a batch of requests in the given order.

    Each request is embedded on the residual network left by its
    predecessors; failures are skipped (no backtracking — the batch
    problem's combinatorial core is out of scope, orderings are the
    practical lever).
    """
    try:
        order_fn = ORDERINGS[ordering]
    except KeyError:
        raise ConfigurationError(
            f"unknown ordering {ordering!r}; available: {', '.join(sorted(ORDERINGS))}"
        ) from None
    ids = {r.request_id for r in requests}
    if len(ids) != len(requests):
        raise ConfigurationError("request ids must be unique within a batch")

    engine = EmbeddingEngine(network, solver)
    order = order_fn(network, requests)
    accepted: list[int] = []
    rejected: list[int] = []
    total = 0.0
    for idx in order:
        req = requests[idx]
        result = engine.submit(req, rng=rng)
        if result.success:
            accepted.append(req.request_id)
            total += result.total_cost
        else:
            rejected.append(req.request_id)
    return BatchOutcome(
        accepted_ids=tuple(accepted),
        rejected_ids=tuple(rejected),
        total_cost=total,
        order=tuple(requests[i].request_id for i in order),
    )
