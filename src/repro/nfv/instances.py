"""Deployed VNF instances: the priced, capacitated units the paper rents.

A :class:`VnfInstance` is one VNF category hosted on one network node, with a
rental price ``c_{v,f(i)}`` per unit traffic rate and a traffic-processing
capability ``r_{v,f(i)}``. A :class:`DeploymentMap` is the full node →
{category → instance} mapping of a cloud network, with the reverse index
``V_i`` (all nodes hosting category ``i``) the formulation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ItemsView, Iterator, Mapping

from ..exceptions import ConfigurationError
from ..types import NodeId, VnfTypeId, vnf_name

__all__ = ["VnfInstance", "DeploymentMap"]

#: Shared fallback for nodes hosting nothing — only ever read, never
#: mutated; avoids allocating an empty dict per miss in the hot lookups.
_NO_INSTANCES: dict[VnfTypeId, "VnfInstance"] = {}


@dataclass(frozen=True, slots=True)
class VnfInstance:
    """One rentable VNF instance ``f_v(i)``."""

    node: NodeId
    vnf_type: VnfTypeId
    price: float
    capacity: float

    def __post_init__(self) -> None:
        if self.price < 0:
            raise ConfigurationError(f"instance price must be >= 0, got {self.price}")
        if self.capacity <= 0:
            raise ConfigurationError(f"instance capacity must be > 0, got {self.capacity}")

    def __repr__(self) -> str:
        return (
            f"VnfInstance({vnf_name(self.vnf_type)}@{self.node}, "
            f"price={self.price:.3f}, cap={self.capacity:.3f})"
        )


class DeploymentMap:
    """Node → {VNF category → instance} mapping with a type reverse-index."""

    def __init__(self) -> None:
        self._by_node: dict[NodeId, dict[VnfTypeId, VnfInstance]] = {}
        self._by_type: dict[VnfTypeId, set[NodeId]] = {}

    # -- construction --------------------------------------------------------

    def add(self, instance: VnfInstance) -> None:
        """Register an instance; at most one instance per (node, category)."""
        node_map = self._by_node.setdefault(instance.node, {})
        if instance.vnf_type in node_map:
            raise ConfigurationError(
                f"node {instance.node} already hosts {vnf_name(instance.vnf_type)}"
            )
        node_map[instance.vnf_type] = instance
        self._by_type.setdefault(instance.vnf_type, set()).add(instance.node)

    def resize_instance(self, node: NodeId, vnf_type: VnfTypeId, capacity: float) -> VnfInstance:
        """Replace the instance ``f_node(vnf_type)`` by one of a new capacity, in place.

        The new instance takes the old one's key, so :meth:`instances_at`
        order and the type index are unchanged. Only
        :class:`~repro.network.state.ResidualState` patches its views with it.
        """
        old = self.instance(node, vnf_type)
        if old is None:
            raise ConfigurationError(f"node {node} does not host {vnf_name(vnf_type)}")
        instance = VnfInstance(node=node, vnf_type=vnf_type, price=old.price, capacity=capacity)
        self._by_node[node][vnf_type] = instance
        return instance

    # -- queries ---------------------------------------------------------------

    def instance(self, node: NodeId, vnf_type: VnfTypeId) -> VnfInstance | None:
        """The instance of ``vnf_type`` on ``node``, or None."""
        return self._by_node.get(node, _NO_INSTANCES).get(vnf_type)

    def has(self, node: NodeId, vnf_type: VnfTypeId) -> bool:
        """True when ``node`` hosts an instance of ``vnf_type``."""
        return vnf_type in self._by_node.get(node, _NO_INSTANCES)

    def types_at(self, node: NodeId) -> frozenset[VnfTypeId]:
        """The VNF categories hosted on ``node`` (the paper's ``F_v``)."""
        return frozenset(self._by_node.get(node, {}))

    def nodes_with(self, vnf_type: VnfTypeId) -> frozenset[NodeId]:
        """All nodes hosting ``vnf_type`` (the paper's ``V_i``)."""
        return frozenset(self._by_type.get(vnf_type, ()))

    def instances_of(self, vnf_type: VnfTypeId) -> list[VnfInstance]:
        """All instances of one category, sorted by node id."""
        return [
            self._by_node[node][vnf_type]
            for node in sorted(self._by_type.get(vnf_type, ()))
        ]

    def instances_at(self, node: NodeId) -> ItemsView[VnfTypeId, VnfInstance]:
        """(category, instance) pairs hosted on ``node``."""
        return self._by_node.get(node, {}).items()

    def all_instances(self) -> Iterator[VnfInstance]:
        """Iterate over every deployed instance."""
        for node_map in self._by_node.values():
            yield from node_map.values()

    @property
    def deployed_types(self) -> frozenset[VnfTypeId]:
        """Categories with at least one instance anywhere."""
        return frozenset(t for t, nodes in self._by_type.items() if nodes)

    def count(self) -> int:
        """Total number of deployed instances."""
        return sum(len(m) for m in self._by_node.values())

    # -- introspection -----------------------------------------------------------

    def deployment_ratio(self, vnf_type: VnfTypeId, n_nodes: int) -> float:
        """Observed deploying ratio of one category over ``n_nodes`` nodes."""
        if n_nodes <= 0:
            raise ConfigurationError("n_nodes must be > 0")
        return len(self._by_type.get(vnf_type, ())) / n_nodes

    @staticmethod
    def from_mapping(mapping: Mapping[NodeId, Mapping[VnfTypeId, tuple[float, float]]]) -> "DeploymentMap":
        """Build from ``{node: {type: (price, capacity)}}`` (test helper)."""
        dm = DeploymentMap()
        for node, type_map in mapping.items():
            for vnf_type, (price, capacity) in type_map.items():
                dm.add(VnfInstance(node=node, vnf_type=vnf_type, price=price, capacity=capacity))
        return dm
