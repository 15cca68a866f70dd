"""The cloud network: topology plus per-node VNF deployments.

:class:`CloudNetwork` is the object every solver consumes — the paper's
target network ``G = (V, E)`` together with the third-party VNF instances
``f_v(i)`` available on each node.
"""

from __future__ import annotations

from typing import Iterable

from ..exceptions import ConfigurationError, NodeNotFoundError
from ..nfv.instances import DeploymentMap, VnfInstance
from ..types import MERGER_VNF, NodeId, VnfTypeId
from .graph import Graph
from .shortest import SearchMemo

__all__ = ["CloudNetwork"]


class CloudNetwork:
    """A priced, capacitated network with deployed VNF instances."""

    def __init__(self, graph: Graph, deployments: DeploymentMap | None = None) -> None:
        self.graph = graph
        self.deployments = deployments if deployments is not None else DeploymentMap()
        #: Min-cost searches solvers may reuse across solves on this
        #: network. Only residual views carry one
        #: (:meth:`~repro.network.state.ResidualState.to_network`), and it
        #: lives and dies with the view; a plain network has None.
        self.searches: SearchMemo | None = None

    # -- construction ------------------------------------------------------------

    def deploy(self, node: NodeId, vnf_type: VnfTypeId, *, price: float, capacity: float) -> VnfInstance:
        """Deploy an instance of ``vnf_type`` on ``node``."""
        if not self.graph.has_node(node):
            raise NodeNotFoundError(node)
        inst = VnfInstance(node=node, vnf_type=vnf_type, price=price, capacity=capacity)
        self.deployments.add(inst)
        return inst

    # -- shortcuts over graph ------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of network nodes."""
        return self.graph.num_nodes

    def nodes(self) -> Iterable[NodeId]:
        """All node ids."""
        return self.graph.nodes()

    # -- shortcuts over deployments ---------------------------------------------------

    def has_vnf(self, node: NodeId, vnf_type: VnfTypeId) -> bool:
        """True when ``node`` hosts ``vnf_type``."""
        return self.deployments.has(node, vnf_type)

    def vnf_types_at(self, node: NodeId) -> frozenset[VnfTypeId]:
        """The hosted categories ``F_v``."""
        return self.deployments.types_at(node)

    def nodes_with(self, vnf_type: VnfTypeId) -> frozenset[NodeId]:
        """The hosting node set ``V_i``."""
        return self.deployments.nodes_with(vnf_type)

    def instance(self, node: NodeId, vnf_type: VnfTypeId) -> VnfInstance:
        """The instance ``f_v(i)`` (raises when absent)."""
        inst = self.deployments.instance(node, vnf_type)
        if inst is None:
            raise ConfigurationError(
                f"node {node} does not host VNF type {vnf_type}"
            )
        return inst

    def rental_price(self, node: NodeId, vnf_type: VnfTypeId) -> float:
        """Rental price ``c_{v,f(i)}`` per unit rate."""
        return self.instance(node, vnf_type).price

    def supports_types(self, vnf_types: Iterable[VnfTypeId]) -> bool:
        """True when every given category is deployed somewhere."""
        return all(self.deployments.nodes_with(t) for t in set(vnf_types))

    def merger_nodes(self) -> frozenset[NodeId]:
        """Nodes hosting a merger instance."""
        return self.deployments.nodes_with(MERGER_VNF)

    def __repr__(self) -> str:
        return (
            f"CloudNetwork(nodes={self.graph.num_nodes}, links={self.graph.num_links}, "
            f"instances={self.deployments.count()})"
        )
