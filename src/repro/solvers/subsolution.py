"""Sub-solutions and the sub-solution tree (§4.4).

A *sub-solution* is a feasible embedding of one layer: placements for the
layer's positions, real-paths for its inter- and inner-layer meta-paths, the
layer's end node, and the cumulative cost/resource usage along the chain back
to the root. Each sub-solution links up to its parent (the previous layer's
sub-solution it extends); the tree indexes them by layer, and its
layer-``omega+1`` leaves are complete candidate solutions. The paper's tree
is bi-directed, but nothing here walks it downwards, so there are no
parent → child links: a solve's tree then holds no reference cycle and is
freed by reference counting as soon as the solve returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..embedding.mapping import Embedding
from ..network.paths import Path
from ..sfc.dag import DagSfc
from ..types import EdgeKey, NodeId, Position, VnfTypeId

__all__ = ["SubSolution", "SubSolutionTree"]


@dataclass
class SubSolution:
    """One layer's embedding, chained to the previous layer's sub-solution."""

    layer: int
    parent: "SubSolution | None"
    end_node: NodeId
    placements: Mapping[Position, NodeId]
    inter_paths: Mapping[Position, Path]
    inner_paths: Mapping[Position, Path]
    layer_cost: float
    cum_cost: float
    #: cumulative instance-use counts *after* this layer (eq. 7 state).
    vnf_counts: Mapping[tuple[NodeId, VnfTypeId], int]
    #: cumulative charged link uses *after* this layer (eq. 8 state).
    link_counts: Mapping[EdgeKey, int]

    @staticmethod
    def root(source: NodeId) -> "SubSolution":
        """The 0th-layer sub-solution: the source node, zero cost."""
        return SubSolution(
            layer=0,
            parent=None,
            end_node=source,
            placements={},
            inter_paths={},
            inner_paths={},
            layer_cost=0.0,
            cum_cost=0.0,
            vnf_counts={},
            link_counts={},
        )

    def chain(self) -> Iterator["SubSolution"]:
        """This sub-solution and its ancestors, leaf → root (the up-links)."""
        node: SubSolution | None = self
        while node is not None:
            yield node
            node = node.parent

    def depth(self) -> int:
        """Number of real layers embedded so far."""
        return sum(1 for _ in self.chain()) - 1

    def to_embedding(self, dag: DagSfc, source: NodeId, dest: NodeId) -> Embedding:
        """Assemble the full embedding from the chain (root must be reached)."""
        placements: dict[Position, NodeId] = {}
        inter: dict[Position, Path] = {}
        inner: dict[Position, Path] = {}
        for ss in self.chain():
            placements.update(ss.placements)
            inter.update(ss.inter_paths)
            inner.update(ss.inner_paths)
        return Embedding(
            dag=dag,
            source=source,
            dest=dest,
            placements=placements,
            inter_paths=inter,
            inner_paths=inner,
        )

    def __repr__(self) -> str:
        return (
            f"SubSolution(layer={self.layer}, end={self.end_node}, "
            f"cum_cost={self.cum_cost:.3f})"
        )


class SubSolutionTree:
    """The tree of sub-solutions built layer by layer (§4.4.2).

    Layer 0 holds the root (source, zero cost); layers ``1..omega`` the
    per-layer sub-solutions; layer ``omega+1`` the completed candidates
    (end node connected to the destination). Generation walks the layer
    index; up-links (``parent``) let a leaf reconstruct its full solution
    without re-walking the tree from the root.
    """

    def __init__(self, source: NodeId) -> None:
        self._root = SubSolution.root(source)
        self._layers: dict[int, list[SubSolution]] = {0: [self._root]}

    @property
    def root(self) -> SubSolution:
        """The 0th-layer sub-solution."""
        return self._root

    def insert(self, parent: SubSolution, child: SubSolution) -> None:
        """Index ``child``, which extends ``parent``, by its layer."""
        if child.parent is not parent:
            raise ValueError("child.parent must be the given parent")
        if child.layer != parent.layer + 1:
            raise ValueError(
                f"child layer {child.layer} must follow parent layer {parent.layer}"
            )
        self._layers.setdefault(child.layer, []).append(child)

    def layer_nodes(self, layer: int) -> list[SubSolution]:
        """All sub-solutions stored for one layer."""
        return list(self._layers.get(layer, ()))

    def leaves(self, layer: int) -> list[SubSolution]:
        """Alias of :meth:`layer_nodes` for the final layer."""
        return self.layer_nodes(layer)

    def size(self) -> int:
        """Total stored sub-solutions (diagnostics / the §4.5 memory claim)."""
        return sum(len(v) for v in self._layers.values())

    def depth(self) -> int:
        """Deepest populated layer."""
        return max(self._layers)

    def cheapest(self, layer: int) -> SubSolution | None:
        """The minimum-cumulative-cost sub-solution of one layer."""
        nodes = self._layers.get(layer)
        if not nodes:
            return None
        return min(nodes, key=lambda ss: ss.cum_cost)
