"""Shortest-path primitives: Dijkstra and breadth-first ring expansion.

Two search flavours drive the whole reproduction:

* price-weighted **Dijkstra** — used by MBBE's min-cost-path instantiation
  (§4.5 strategy 2) and by the RANV/MINV baselines ("minimum cost path
  generated by the Dijkstra algorithm", §5.1);
* hop-based **BFS rings** — the iterations of the forward/backward searches
  of BBE (§4.2–4.3). :func:`bfs_rings` returns, per searched node, the list
  of its predecessors in the previous ring — exactly the "previous node
  list" element of the paper's search-tree nodes (Table 1), from which all
  shortest-hop real-paths can be enumerated.

Both accept ``link_filter`` / ``node_filter`` predicates so searches run on
the *real-time* (residual) network ``G_l`` without copying the graph.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from ..exceptions import NodeNotFoundError
from ..types import NodeId
from .graph import Graph, Link
from .paths import Path

__all__ = [
    "LinkFilter",
    "NodeFilter",
    "LinkWeight",
    "DijkstraResult",
    "SearchMemo",
    "CAPACITY_EPS",
    "dijkstra",
    "min_cost_path",
    "bidirectional_dijkstra",
    "path_from_predecessors",
    "bfs_rings",
    "BfsRings",
    "hop_distances",
]

#: Predicate selecting usable links (e.g. "has residual bandwidth").
LinkFilter = Callable[[Link], bool]
#: Predicate selecting usable nodes.
NodeFilter = Callable[[NodeId], bool]
#: Link → search weight override (constraint pricing); None = ``link.price``.
LinkWeight = Callable[[Link], float]


class DijkstraResult:
    """Distances and predecessor tree of one Dijkstra run, resumable.

    ``dist`` holds the settled nodes in settle order. The run keeps its
    heap, so :meth:`settle` can continue it towards further targets: it pops
    exactly the labels a fresh run would pop next, so ``dist`` and ``pred``
    then equal a fresh ``dijkstra(targets=...)`` on every node that fresh
    run settles (and hold more settled nodes when an earlier call went
    further). Every settled node's neighbours are relaxed before the run
    stops, so a resumed run never has to revisit one.
    """

    __slots__ = (
        "source", "dist", "pred", "_paths", "_heap", "_tentative", "_adjacency",
        "_link_filter", "_node_filter", "_max_cost", "_weight",
    )

    def __init__(
        self,
        graph: Graph,
        source: NodeId,
        *,
        link_filter: LinkFilter | None = None,
        node_filter: NodeFilter | None = None,
        max_cost: float | None = None,
        weight: LinkWeight | None = None,
    ) -> None:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        self.source = source
        self.dist: dict[NodeId, float] = {}
        self.pred: dict[NodeId, NodeId] = {}
        #: reconstruction cache — MBBE asks for the same paths once per
        #: allocation combo containing the node.
        self._paths: dict[NodeId, Path] = {}
        self._tentative: dict[NodeId, float] = {source: 0.0}
        self._heap: list[tuple[float, NodeId]] = (
            [(0.0, source)] if node_filter is None or node_filter(source) else []
        )
        self._adjacency = graph.adjacency
        self._link_filter = link_filter
        self._node_filter = node_filter
        self._max_cost = max_cost
        self._weight = weight

    def settle(self, targets: Iterable[NodeId] | None = None) -> "DijkstraResult":
        """Run on until every node of ``targets`` is settled (every reachable
        node when None) or the reachable component is exhausted."""
        dist = self.dist
        remaining: set[NodeId] | None = None
        if targets is not None:
            remaining = set(targets).difference(dist)
            if not remaining and dist:  # a fresh run still settles its root
                return self
        heap = self._heap
        pred = self.pred
        tentative = self._tentative
        link_filter = self._link_filter
        node_filter = self._node_filter
        max_cost = self._max_cost
        weight = self._weight
        # Hot loop: hoisted bound methods, adjacency items instead of
        # incident+Link.other, and the settled check ahead of the (pure)
        # filters so already-settled neighbours never pay a predicate call.
        heappop, heappush = heapq.heappop, heapq.heappush
        adjacency = self._adjacency
        tentative_get = tentative.get
        inf = float("inf")
        while heap:
            d, node = heappop(heap)
            if node in dist:
                continue  # stale lazy-deletion label
            dist[node] = d
            for nb, link in adjacency(node):
                if nb in dist:
                    continue
                if link_filter is not None and not link_filter(link):
                    continue
                if node_filter is not None and not node_filter(nb):
                    continue
                nd = d + (link.price if weight is None else weight(link))
                if max_cost is not None and nd > max_cost:
                    continue
                if nd < tentative_get(nb, inf):
                    tentative[nb] = nd
                    pred[nb] = node
                    heappush(heap, (nd, nb))
            if remaining is not None:
                remaining.discard(node)
                if not remaining:
                    break
        return self

    def reachable(self, node: NodeId) -> bool:
        """True when ``node`` was reached."""
        return node in self.dist

    def cost_to(self, node: NodeId) -> float:
        """Min cost to ``node`` (``inf`` when unreachable)."""
        return self.dist.get(node, float("inf"))

    def path_to(self, node: NodeId) -> Path | None:
        """Reconstruct the min-cost path, or None when unreachable (cached)."""
        if node not in self.dist:
            return None
        path = self._paths.get(node)
        if path is None:
            path = path_from_predecessors(self.source, node, self.pred)
            self._paths[node] = path
        return path


#: Slack of the residual link test ``rate <= capacity + CAPACITY_EPS`` that
#: the solvers' link filters apply.
CAPACITY_EPS = 1e-9


class SearchMemo:
    """Min-cost searches kept for reuse on one network, least recently used
    evicted first once ``bound`` entries are held (``None``: no bound).

    Keys are opaque to the memo. Each entry is filed under the flow rate
    its link filter admits, a filter whose verdict on a link depends on the
    link's capacity only through ``rate <= capacity + CAPACITY_EPS``. When
    the network resizes a link in place, :meth:`resized` drops the entries
    of every rate whose verdict on that link flipped, so each kept entry,
    resumed with :meth:`DijkstraResult.settle`, equals a fresh run on the
    resized network. Dropping or evicting an entry only costs a new search.
    """

    __slots__ = ("bound", "_entries", "_rates")

    def __init__(self, bound: int | None = None) -> None:
        if bound is not None and bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        self.bound = bound
        self._entries: OrderedDict[Hashable, tuple[float, DijkstraResult]] = OrderedDict()
        #: rate -> the keys filed under it.
        self._rates: dict[float, set[Hashable]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> DijkstraResult | None:
        """The search stored under ``key``, or None."""
        hit = self._entries.get(key)
        if hit is None:
            return None
        if self.bound is not None:
            self._entries.move_to_end(key)
        return hit[1]

    def put(self, key: Hashable, rate: float, result: DijkstraResult) -> None:
        """Store ``result`` under ``key``, filed under ``rate``."""
        entries = self._entries
        if key in entries:
            self._forget(key, entries.pop(key)[0])
        entries[key] = (rate, result)
        self._rates.setdefault(rate, set()).add(key)
        if self.bound is not None and len(entries) > self.bound:
            old, (old_rate, _) = entries.popitem(last=False)
            self._forget(old, old_rate)

    def _forget(self, key: Hashable, rate: float) -> None:
        keys = self._rates[rate]
        keys.discard(key)
        if not keys:
            del self._rates[rate]

    def resized(self, old_capacity: float, new_capacity: float) -> None:
        """A link's capacity changed: drop every rate's entries whose
        filter verdict on it flipped. O(cached rates)."""
        flipped = [
            rate
            for rate in self._rates
            if (rate <= old_capacity + CAPACITY_EPS) != (rate <= new_capacity + CAPACITY_EPS)
        ]
        for rate in flipped:
            for key in self._rates.pop(rate):
                del self._entries[key]

    def items(self) -> Iterator[tuple[Hashable, float, DijkstraResult]]:
        """(key, rate, search) per entry, least recently used first."""
        for key, (rate, result) in self._entries.items():
            yield key, rate, result


def path_from_predecessors(
    source: NodeId, target: NodeId, pred: Mapping[NodeId, NodeId]
) -> Path:
    """Walk a predecessor map back from ``target`` to ``source``."""
    nodes = [target]
    while nodes[-1] != source:
        nodes.append(pred[nodes[-1]])
    nodes.reverse()
    return Path(nodes)


def dijkstra(
    graph: Graph,
    source: NodeId,
    *,
    targets: Iterable[NodeId] | None = None,
    link_filter: LinkFilter | None = None,
    node_filter: NodeFilter | None = None,
    max_cost: float | None = None,
    weight: LinkWeight | None = None,
) -> DijkstraResult:
    """Price-weighted single-source shortest paths.

    Parameters
    ----------
    targets:
        When given, the search stops as soon as every target is settled;
        :meth:`DijkstraResult.settle` resumes it.
    link_filter / node_filter:
        Restrict the search to the residual network.
    max_cost:
        Abandon labels exceeding this cost (search-radius bound).
    weight:
        Per-link search weight override (e.g. constraint pricing — see
        ``repro.constraints``). None keeps the ``link.price`` fast path
        untouched.
    """
    search = DijkstraResult(
        graph, source, link_filter=link_filter, node_filter=node_filter,
        max_cost=max_cost, weight=weight,
    )
    return search.settle(targets)


def min_cost_path(
    graph: Graph,
    source: NodeId,
    target: NodeId,
    *,
    link_filter: LinkFilter | None = None,
    node_filter: NodeFilter | None = None,
    weight: LinkWeight | None = None,
) -> Path | None:
    """The cheapest path from ``source`` to ``target`` (None if unreachable)."""
    if source == target:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        return Path.trivial(source)
    result = dijkstra(
        graph,
        source,
        targets=(target,),
        link_filter=link_filter,
        node_filter=node_filter,
        weight=weight,
    )
    return result.path_to(target)


@dataclass(frozen=True, slots=True)
class BfsRings:
    """Result of a breadth-first ring expansion (one forward/backward search).

    Attributes
    ----------
    source:
        The search start node (FST/BST root).
    rings:
        ``rings[q]`` is the set of nodes first reached in iteration ``q``;
        ``rings[0] == {source}``.
    preds:
        For every non-root searched node, its neighbours in the *previous*
        ring — the paper's "previous node list". Every shortest-hop path to
        the root is a walk through this predecessor DAG.
    complete:
        False when the expansion stopped because of ``max_nodes`` before the
        stop condition held.
    """

    source: NodeId
    rings: tuple[frozenset[NodeId], ...]
    preds: Mapping[NodeId, tuple[NodeId, ...]]
    complete: bool
    #: node -> ring index, materialized on first construction so depth_of and
    #: membership (used inside MBBE's merger sort keys) are O(1), not a scan.
    _depths: Mapping[NodeId, int] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _node_set: frozenset[NodeId] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        depths = {
            node: q for q, ring in enumerate(self.rings) for node in ring
        }
        object.__setattr__(self, "_depths", depths)

    @property
    def node_set(self) -> frozenset[NodeId]:
        """All searched nodes (the paper's ``V^{F,l}`` / ``V^{B,l}``)."""
        cached = self._node_set
        if cached is None:
            cached = frozenset(self._depths)
            object.__setattr__(self, "_node_set", cached)
        return cached

    @property
    def iterations(self) -> int:
        """Number of BFS iterations executed (root ring included)."""
        return len(self.rings)

    def depth_of(self, node: NodeId) -> int:
        """Ring index of a searched node."""
        try:
            return self._depths[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def __contains__(self, node: NodeId) -> bool:
        return node in self._depths


def bfs_rings(
    graph: Graph,
    source: NodeId,
    *,
    stop: Callable[[frozenset[NodeId]], bool],
    max_nodes: int | None = None,
    allowed: Callable[[NodeId], bool] | None = None,
    link_filter: LinkFilter | None = None,
) -> BfsRings:
    """Expand BFS rings from ``source`` until ``stop(node_set)`` holds.

    ``stop`` receives the cumulated node set after each completed iteration;
    the expansion also ends when the whole reachable component is exhausted
    or when adding the next ring would exceed ``max_nodes`` (MBBE's
    ``X_max``; the partial result is returned with ``complete=False`` if the
    stop condition never held).

    ``allowed`` restricts which nodes may be searched (the backward search
    passes the forward node set here).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    rings: list[frozenset[NodeId]] = [frozenset((source,))]
    seen: set[NodeId] = {source}
    preds: dict[NodeId, tuple[NodeId, ...]] = {}
    # One immutable snapshot per iteration, handed to ``stop`` (which may be
    # incrementally stateful — see repro.solvers.common.coverage_stop); the
    # frontier is kept as a pre-sorted list instead of re-sorting the
    # previous ring every iteration.
    complete = stop(frozenset(seen))
    frontier: list[NodeId] = [source]
    adjacency = graph.adjacency
    while not complete:
        discovered: dict[NodeId, list[NodeId]] = {}
        for node in frontier:
            for nb, link in adjacency(node):
                if nb in seen:
                    continue
                if link_filter is not None and not link_filter(link):
                    continue
                if allowed is not None and not allowed(nb):
                    continue
                discovered.setdefault(nb, []).append(node)
        if not discovered:
            break  # component exhausted without satisfying stop
        if max_nodes is not None and len(seen) + len(discovered) > max_nodes:
            # Admit a deterministic subset up to the cap (sorted by node id).
            budget = max_nodes - len(seen)
            if budget <= 0:
                break
            kept = dict(sorted(discovered.items())[:budget])
            discovered = kept
            if not discovered:
                break
        ring = frozenset(discovered)
        for nb, parents in discovered.items():
            preds[nb] = tuple(sorted(parents))
        seen.update(ring)
        rings.append(ring)
        complete = stop(frozenset(seen))
        if max_nodes is not None and len(seen) >= max_nodes and not complete:
            break
        frontier = sorted(discovered)
    return BfsRings(source=source, rings=tuple(rings), preds=preds, complete=complete)


def hop_distances(graph: Graph, source: NodeId, *, link_filter: LinkFilter | None = None) -> dict[NodeId, int]:
    """Hop counts from ``source`` to every reachable node (plain BFS)."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    dist = {source: 0}
    frontier: Sequence[NodeId] = (source,)
    d = 0
    while frontier:
        d += 1
        nxt: list[NodeId] = []
        for node in frontier:
            for link in graph.incident(node):
                if link_filter is not None and not link_filter(link):
                    continue
                nb = link.other(node)
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    return dist


def bidirectional_dijkstra(
    graph: Graph,
    source: NodeId,
    target: NodeId,
    *,
    link_filter: LinkFilter | None = None,
) -> Path | None:
    """Min-cost path via simultaneous forward/backward Dijkstra.

    Settles roughly half the nodes a unidirectional search would on
    large sparse graphs — worthwhile for single-pair queries like the
    baselines' meta-path routing. Returns None when unreachable.
    Correctness: the searches stop once the cheapest undecided label on
    either side can no longer beat the best meeting point.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        return Path.trivial(source)

    INF = float("inf")
    dist = ({source: 0.0}, {target: 0.0})  # settled distances per side
    tentative = ({source: 0.0}, {target: 0.0})
    pred: tuple[dict[NodeId, NodeId], dict[NodeId, NodeId]] = ({}, {})
    heaps: list[list[tuple[float, NodeId]]] = [[(0.0, source)], [(0.0, target)]]
    settled: tuple[set[NodeId], set[NodeId]] = (set(), set())
    best_total = INF
    meet: NodeId | None = None

    while heaps[0] and heaps[1]:
        # Termination: tops of both heaps can't improve the meeting cost.
        # Checked only here, with every settled node's relaxations done —
        # mid-iteration (between a pop and its relaxations) the tops
        # overestimate the cheapest undecided label and would stop early.
        if meet is not None and best_total <= heaps[0][0][0] + heaps[1][0][0]:
            break
        # Alternate sides, always expanding the smaller frontier top.
        side = 0 if heaps[0][0][0] <= heaps[1][0][0] else 1
        d, node = heapq.heappop(heaps[side])
        if node in settled[side]:
            continue
        settled[side].add(node)
        dist[side][node] = d
        other = 1 - side
        od = tentative[other].get(node)
        if od is not None and d + od < best_total:
            best_total = d + od
            meet = node
        for link in graph.incident(node):
            if link_filter is not None and not link_filter(link):
                continue
            nb = link.other(node)
            if nb in settled[side]:
                continue
            nd = d + link.price
            if nd < tentative[side].get(nb, INF):
                tentative[side][nb] = nd
                pred[side][nb] = node
                heapq.heappush(heaps[side], (nd, nb))
            # A frontier-to-frontier meeting can also set the incumbent.
            od = tentative[other].get(nb)
            if od is not None and nd + od < best_total:
                best_total = nd + od
                meet = nb

    if meet is None:
        return None
    # Forward half: source -> meet.
    fwd = [meet]
    while fwd[-1] != source:
        fwd.append(pred[0][fwd[-1]])
    fwd.reverse()
    # Backward half: meet -> target.
    bwd = [meet]
    while bwd[-1] != target:
        bwd.append(pred[1][bwd[-1]])
    return Path(tuple(fwd) + tuple(bwd[1:]))
