"""Undirected adjacency-map graph with priced, capacitated links.

The target network of §3.2: every link ``e`` is bi-directional and carries a
link price ``c_e`` per unit traffic rate and a bandwidth capacity ``r_e``.
Links are stored once and shared by both adjacency directions, so mutating a
link's bookkeeping is impossible by construction (links are frozen); dynamic
capacity lives in :class:`repro.network.state.ResidualState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, ItemsView, Iterator, KeysView

from ..exceptions import (
    ConfigurationError,
    LinkNotFoundError,
    NodeNotFoundError,
)
from ..types import EdgeKey, NodeId, edge_key

__all__ = ["Link", "Graph"]


@dataclass(frozen=True, slots=True)
class Link:
    """A bi-directional network link with unit-rate price and capacity."""

    u: NodeId
    v: NodeId
    price: float
    capacity: float
    #: canonical node pair, precomputed — ``key`` is probed once per relaxed
    #: edge in every residual-filtered search, which dominates solver time.
    _key: EdgeKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ConfigurationError(f"self-loop on node {self.u} is not allowed")
        if self.price < 0:
            raise ConfigurationError(f"link price must be >= 0, got {self.price}")
        if self.capacity <= 0:
            raise ConfigurationError(f"link capacity must be > 0, got {self.capacity}")
        object.__setattr__(self, "_key", edge_key(self.u, self.v))

    @property
    def key(self) -> EdgeKey:
        """Canonical (sorted) node pair identifying this link."""
        return self._key

    def other(self, node: NodeId) -> NodeId:
        """The endpoint opposite ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise NodeNotFoundError(node)


class Graph:
    """Undirected multigraph-free graph over contiguous integer node ids."""

    def __init__(self) -> None:
        self._adj: dict[NodeId, dict[NodeId, Link]] = {}
        self._links: dict[EdgeKey, Link] = {}

    # -- construction ----------------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        """Add an isolated node (idempotent)."""
        if node < 0:
            raise ConfigurationError(f"node ids must be >= 0, got {node}")
        self._adj.setdefault(node, {})

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        """Add several nodes."""
        for node in nodes:
            self.add_node(node)

    def add_link(self, u: NodeId, v: NodeId, *, price: float, capacity: float) -> Link:
        """Create the link ``{u, v}``; endpoints are added as needed."""
        key = edge_key(u, v)
        if key in self._links:
            raise ConfigurationError(f"link {key} already exists")
        link = Link(u=key[0], v=key[1], price=price, capacity=capacity)
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = link
        self._adj[v][u] = link
        self._links[key] = link
        return link

    def remove_link(self, u: NodeId, v: NodeId) -> None:
        """Delete the link ``{u, v}``."""
        key = edge_key(u, v)
        if key not in self._links:
            raise LinkNotFoundError(u, v)
        del self._links[key]
        del self._adj[u][v]
        del self._adj[v][u]

    def remove_node(self, node: NodeId) -> None:
        """Delete ``node`` together with every incident link."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for nb in list(self._adj[node]):
            del self._links[edge_key(node, nb)]
            del self._adj[nb][node]
        del self._adj[node]

    def resize_link(self, key: EdgeKey, capacity: float) -> Link:
        """Replace the link under the canonical ``key`` by one of a new
        capacity, in place.

        The new link takes the old one's key in :meth:`links` and in both
        endpoints' adjacency, so every iteration order is unchanged. Only
        :class:`~repro.network.state.ResidualState` patches its views with it.
        """
        old = self._links.get(key)
        if old is None:
            raise LinkNotFoundError(*key)
        link = Link(u=old.u, v=old.v, price=old.price, capacity=capacity)
        self._links[key] = link
        self._adj[link.u][link.v] = link
        self._adj[link.v][link.u] = link
        return link

    # -- queries -----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def num_links(self) -> int:
        """Number of undirected links."""
        return len(self._links)

    def nodes(self) -> KeysView[NodeId]:
        """View over all node ids."""
        return self._adj.keys()

    def links(self) -> Iterator[Link]:
        """Iterate over every undirected link once."""
        return iter(self._links.values())

    def has_node(self, node: NodeId) -> bool:
        """True when the node exists."""
        return node in self._adj

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        """True when the undirected link ``{u, v}`` exists."""
        return edge_key(u, v) in self._links

    def link_at(self, key: EdgeKey) -> Link | None:
        """The link under the canonical ``key``, or None."""
        return self._links.get(key)

    def link(self, u: NodeId, v: NodeId) -> Link:
        """The link ``{u, v}`` (raises :class:`LinkNotFoundError`)."""
        try:
            return self._links[edge_key(u, v)]
        except KeyError:
            raise LinkNotFoundError(u, v) from None

    def neighbors(self, node: NodeId) -> KeysView[NodeId]:
        """Neighbors of ``node`` (raises :class:`NodeNotFoundError`)."""
        try:
            return self._adj[node].keys()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def incident(self, node: NodeId) -> Iterator[Link]:
        """Links incident to ``node``."""
        try:
            return iter(self._adj[node].values())
        except KeyError:
            raise NodeNotFoundError(node) from None

    def adjacency(self, node: NodeId) -> ItemsView[NodeId, Link]:
        """``(neighbor, link)`` pairs for ``node``.

        The search kernels iterate this instead of :meth:`incident` so the
        relaxation loop never pays ``Link.other`` per edge.
        """
        try:
            return self._adj[node].items()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: NodeId) -> int:
        """Degree of ``node``."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def average_degree(self) -> float:
        """Average node degree (the paper's "network connectivity")."""
        if not self._adj:
            return 0.0
        return 2.0 * self.num_links / self.num_nodes

    def total_link_price(self) -> float:
        """Sum of all link prices (diagnostics)."""
        return sum(link.price for link in self._links.values())

    # -- algorithms ---------------------------------------------------------------

    def is_connected(self) -> bool:
        """True when the graph has one connected component (BFS)."""
        if not self._adj:
            return True
        start = next(iter(self._adj))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt: list[NodeId] = []
            for node in frontier:
                for nb in self._adj[node]:
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        return len(seen) == self.num_nodes

    def copy(self) -> "Graph":
        """Shallow structural copy (links are immutable, safe to share)."""
        g = Graph()
        g.add_nodes(self._adj)
        for link in self._links.values():
            g._adj[link.u][link.v] = link
            g._adj[link.v][link.u] = link
            g._links[link.key] = link
        return g

    def __repr__(self) -> str:
        return f"Graph(nodes={self.num_nodes}, links={self.num_links})"
