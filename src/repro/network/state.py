"""Residual-capacity tracking: the "real-time network graph" of Algorithm 1.

:class:`ResidualState` overlays usage counters on an immutable
:class:`~repro.network.cloud.CloudNetwork`. Accepted embeddings reserve VNF
processing rate and link bandwidth on it (through
:class:`~repro.network.reservations.Reservation`), and
:meth:`ResidualState.to_network` projects what is left (minus anything a
:class:`~repro.faults.model.FaultState` marks dead) into the network every
solve runs on; :meth:`ResidualState.patch_network` keeps such a view current
in place after a usage change that leaves its shape alone. Each view
carries a fresh :class:`~repro.network.shortest.SearchMemo` (at most
:data:`VIEW_SEARCHES` searches) that the patches keep valid.

Reservation semantics follow the paper's reuse model:

* a VNF reservation consumes ``rate`` per *use* (per SFC position assigned
  to the instance — eq. 7);
* a link reservation consumes ``rate`` per *charged traversal*: inner-layer
  paths reserve per traversal, inter-layer multicast reserves each link once
  per layer (eq. 8–10). The caller expresses that by how many times it calls
  :meth:`reserve_link`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..exceptions import CapacityError
from ..nfv.instances import VnfInstance
from ..types import EdgeKey, NodeId, VnfTypeId, edge_key
from .cloud import CloudNetwork
from .graph import Graph, Link
from .shortest import SearchMemo

if TYPE_CHECKING:
    from ..faults.model import FaultState

__all__ = ["ResidualState", "VIEW_SEARCHES"]

#: Min-cost searches one view keeps (least recently used evicted first).
VIEW_SEARCHES = 64


class ResidualState:
    """Mutable residual capacities over a cloud network."""

    def __init__(self, network: CloudNetwork) -> None:
        self.network = network
        self._link_used: dict[EdgeKey, float] = {}
        self._vnf_used: dict[tuple[NodeId, VnfTypeId], float] = {}

    # -- queries -----------------------------------------------------------------

    def link_used(self, u: NodeId, v: NodeId) -> float:
        """Bandwidth already reserved on link ``{u, v}``."""
        return self._link_used.get(edge_key(u, v), 0.0)

    def link_residual(self, u: NodeId, v: NodeId) -> float:
        """Remaining bandwidth on link ``{u, v}``."""
        link = self.network.graph.link(u, v)
        return link.capacity - self.link_used(u, v)

    def vnf_used(self, node: NodeId, vnf_type: VnfTypeId) -> float:
        """Processing rate already reserved on instance ``f_v(i)``."""
        return self._vnf_used.get((node, vnf_type), 0.0)

    def vnf_residual(self, node: NodeId, vnf_type: VnfTypeId) -> float:
        """Remaining processing rate on instance ``f_v(i)``."""
        inst = self.network.instance(node, vnf_type)
        return inst.capacity - self.vnf_used(node, vnf_type)

    def link_admits(self, link: Link, rate: float) -> bool:
        """True when the link still has ``rate`` bandwidth available."""
        return link.capacity - self._link_used.get(link.key, 0.0) >= rate - 1e-12

    def vnf_admits(self, node: NodeId, vnf_type: VnfTypeId, rate: float) -> bool:
        """True when the instance exists and has ``rate`` capacity available."""
        inst = self.network.deployments.instance(node, vnf_type)
        if inst is None:
            return False
        return inst.capacity - self.vnf_used(node, vnf_type) >= rate - 1e-12

    # -- reservation ---------------------------------------------------------------

    def check_link(self, u: NodeId, v: NodeId, rate: float) -> float:
        """Bandwidth used on link ``{u, v}``; raises when ``rate`` more does not fit."""
        link = self.network.graph.link(u, v)
        used = self._link_used.get(link.key, 0.0)
        if used + rate > link.capacity + 1e-9:
            raise CapacityError(
                f"link {link.key}: reserving {rate} exceeds capacity "
                f"{link.capacity} (used {used})"
            )
        return used

    def check_vnf(self, node: NodeId, vnf_type: VnfTypeId, rate: float) -> float:
        """Rate used on instance ``f_v(i)``; raises when ``rate`` more does not fit."""
        inst = self.network.instance(node, vnf_type)
        used = self._vnf_used.get((node, vnf_type), 0.0)
        if used + rate > inst.capacity + 1e-9:
            raise CapacityError(
                f"VNF {vnf_type}@{node}: reserving {rate} exceeds capacity "
                f"{inst.capacity} (used {used})"
            )
        return used

    def reserve_link(self, u: NodeId, v: NodeId, rate: float) -> None:
        """Reserve ``rate`` bandwidth on link ``{u, v}`` (raises on overflow)."""
        self._link_used[edge_key(u, v)] = self.check_link(u, v, rate) + rate

    def reserve_vnf(self, node: NodeId, vnf_type: VnfTypeId, rate: float) -> None:
        """Reserve ``rate`` processing on instance ``f_v(i)`` (raises on overflow)."""
        self._vnf_used[(node, vnf_type)] = self.check_vnf(node, vnf_type, rate) + rate

    def release_link(self, u: NodeId, v: NodeId, rate: float) -> None:
        """Return ``rate`` bandwidth on link ``{u, v}`` (departures)."""
        key = edge_key(u, v)
        used = self._link_used.get(key, 0.0)
        if rate > used + 1e-9:
            raise CapacityError(
                f"link {key}: releasing {rate} but only {used} is reserved"
            )
        remaining = used - rate
        if remaining <= 1e-12:
            self._link_used.pop(key, None)
        else:
            self._link_used[key] = remaining

    def release_vnf(self, node: NodeId, vnf_type: VnfTypeId, rate: float) -> None:
        """Return ``rate`` processing on instance ``f_v(i)`` (departures)."""
        key = (node, vnf_type)
        used = self._vnf_used.get(key, 0.0)
        if rate > used + 1e-9:
            raise CapacityError(
                f"VNF {vnf_type}@{node}: releasing {rate} but only {used} is reserved"
            )
        remaining = used - rate
        if remaining <= 1e-12:
            self._vnf_used.pop(key, None)
        else:
            self._vnf_used[key] = remaining

    # -- derived views -----------------------------------------------------------------

    def _link_residual(self, link: Link, faults: FaultState | None) -> float | None:
        """Base ``link``'s capacity in a view, or None when the view drops it."""
        residual = link.capacity - self._link_used.get(link.key, 0.0)
        if residual > 1e-9 and (faults is None or faults.link_alive(link.u, link.v)):
            return residual
        return None

    def _vnf_residual(self, inst: VnfInstance, faults: FaultState | None) -> float | None:
        """Base ``inst``'s capacity in a view, or None when the view drops it."""
        residual = inst.capacity - self._vnf_used.get((inst.node, inst.vnf_type), 0.0)
        if residual > 1e-9 and (
            faults is None or faults.instance_alive(inst.node, inst.vnf_type)
        ):
            return residual
        return None

    def to_network(self, faults: FaultState | None = None) -> CloudNetwork:
        """A :class:`CloudNetwork` whose capacities are the current residuals.

        Saturated links and instances are dropped entirely, and so is every
        element ``faults`` marks dead: a dead node, a link that is dead or
        has a dead endpoint, an instance that is dead or on a dead host. Any
        solver therefore runs unmodified against what is left — the
        "real-time network graph" of Algorithm 1. Survivors keep the base
        network's insertion order, which search tie-breaks follow. The view
        carries an empty search memo of its own
        (:attr:`~repro.network.cloud.CloudNetwork.searches`).
        """
        if faults is not None and not faults.any_dead:
            faults = None
        base = self.network
        graph = Graph()
        graph.add_nodes(
            node for node in base.graph.nodes() if faults is None or faults.node_alive(node)
        )
        for link in base.graph.links():
            residual = self._link_residual(link, faults)
            if residual is not None:
                graph.add_link(link.u, link.v, price=link.price, capacity=residual)
        out = CloudNetwork(graph)
        for inst in base.deployments.all_instances():
            residual = self._vnf_residual(inst, faults)
            if residual is not None:
                out.deploy(inst.node, inst.vnf_type, price=inst.price, capacity=residual)
        out.searches = SearchMemo(VIEW_SEARCHES)
        return out

    def patch_network(
        self,
        view: CloudNetwork,
        links: Iterable[EdgeKey],
        vnfs: Iterable[tuple[NodeId, VnfTypeId]],
        faults: FaultState | None = None,
    ) -> bool:
        """Bring ``view`` up to date on the given elements, in place.

        ``view`` must be this state's :meth:`to_network` under ``faults``
        as it was before the usage of ``links`` (canonical edge keys) and
        ``vnfs`` changed. An
        element in the view before and after gets its new residual under
        its existing key, so every iteration order stays that of a fresh
        build; an element absent before and after stays absent. Returns
        False when an element crossed the saturation line either way — a
        fresh build would insert or delete it — and ``view`` is then
        part-patched: the caller must discard it. A resized link drops the
        view's memoised searches whose rate it no longer (or newly) admits
        (:meth:`~repro.network.shortest.SearchMemo.resized`).
        """
        if faults is not None and not faults.any_dead:
            faults = None
        base = self.network
        graph = view.graph
        searches = view.searches
        base_link, view_link = base.graph.link_at, graph.link_at
        for key in links:
            link = base_link(key)
            assert link is not None  # a reservation holds only base links
            residual = self._link_residual(link, faults)
            current = view_link(key)
            if (current is not None) != (residual is not None):
                return False
            if current is not None and residual is not None:
                if searches:
                    searches.resized(current.capacity, residual)
                graph.resize_link(key, residual)
        deployments = view.deployments
        for node, vnf_type in vnfs:
            residual = self._vnf_residual(base.instance(node, vnf_type), faults)
            if deployments.has(node, vnf_type) != (residual is not None):
                return False
            if residual is not None:
                deployments.resize_instance(node, vnf_type, residual)
        return True

    # -- filters for searches -----------------------------------------------------------

    def link_filter(self, rate: float) -> Callable[[Link], bool]:
        """A :data:`~repro.network.shortest.LinkFilter` admitting ``rate``."""

        def _filter(link: Link) -> bool:
            return self.link_admits(link, rate)

        return _filter

    # -- introspection --------------------------------------------------------------------

    def used_links(self) -> Iterator[tuple[EdgeKey, float]]:
        """(link, reserved bandwidth) pairs with non-zero usage."""
        return iter(self._link_used.items())

    def used_vnfs(self) -> Iterator[tuple[tuple[NodeId, VnfTypeId], float]]:
        """((node, type), reserved rate) pairs with non-zero usage."""
        return iter(self._vnf_used.items())

    def snapshot(self) -> "ResidualState":
        """Independent deep copy (planners reserve on it without touching this one)."""
        clone = ResidualState(self.network)
        clone._link_used = dict(self._link_used)
        clone._vnf_used = dict(self._vnf_used)
        return clone
