"""MBBE-S: MBBE with Steiner-tree multicast instantiation (extension).

The optimal instantiation of one layer's inter-layer meta-paths is a
minimum Steiner tree from the layer's start node to the allocated VNF
nodes (eq. 9 prices the link *union* once). MBBE approximates that union
implicitly — independent min-cost paths happen to share their prefixes.
MBBE-S makes the multicast explicit: for each candidate allocation it
builds an MST-approximate Steiner tree over the residual network and routes
every inter-layer path inside the tree.

This is the natural "future work" refinement of §4.5's strategy 2; the
ablation bench (`benchmarks/bench_ablation_steiner.py`) quantifies how much
the explicit multicast buys over MBBE's shared-prefix approximation
(spoiler: little at deploy ratio 50 % — allocations cluster around the
start node — but measurably more on sparse deployments where branches are
long).
"""

from __future__ import annotations

from ..exceptions import DisconnectedNetworkError
from ..network.cloud import CloudNetwork
from ..network.paths import Path
from ..network.steiner import mst_steiner_tree
from typing import Any

from ..config import FlowConfig
from ..constraints.base import ConstraintSet
from ..network.shortest import LinkFilter
from ..sfc.dag import Layer
from ..types import NodeId
from .common import evaluate_layer_candidate
from .mbbe import MbbeEmbedder, _PairTable
from .subsolution import SubSolution

__all__ = ["MbbeSteinerEmbedder"]


class MbbeSteinerEmbedder(MbbeEmbedder):
    """MBBE with explicit Steiner-tree inter-layer multicast."""

    name = "MBBE-S"

    def _pair_subsolutions(
        self,
        network: CloudNetwork,
        flow: FlowConfig,
        parent: SubSolution,
        l: int,
        layer: Layer,
        merger_node: NodeId,
        table: _PairTable,
        link_f: LinkFilter,
        cset: ConstraintSet,
        stats: dict[str, Any],
        *,
        keep: int | None,
        built: list[float],
    ) -> list[SubSolution]:
        # Generate MBBE's candidates first (shared-prefix multicast), then
        # try to improve each allocation with an explicit tree. A tree can
        # re-rank any combo, so the whole product is built (keep=None) and
        # the caller cuts after the improvement.
        base = super()._pair_subsolutions(
            network, flow, parent, l, layer, merger_node, table, link_f, cset, stats,
            keep=None, built=built,
        )
        improved: list[SubSolution] = []
        graph = network.graph
        phi = layer.phi
        for ss in base:
            assignment = {
                pos.gamma: node for pos, node in ss.placements.items()
            }
            terminals = sorted({assignment[g] for g in range(1, phi + 1)})
            try:
                tree = mst_steiner_tree(
                    graph, parent.end_node, terminals, link_filter=link_f
                )
            except DisconnectedNetworkError:
                improved.append(ss)
                continue
            inter_paths: dict[int, Path] = {}
            ok = True
            for g in range(1, phi + 1):
                try:
                    inter_paths[g] = tree.path_to(graph, assignment[g])
                except Exception:
                    ok = False
                    break
            if not ok:
                improved.append(ss)
                continue
            inner_paths = {
                pos.gamma: path for pos, path in ss.inner_paths.items()
            }
            cand = evaluate_layer_candidate(
                network,
                flow,
                parent,
                l,
                layer,
                assignment=assignment,
                inter_paths=inter_paths,
                inner_paths=inner_paths,
                constraints=cset,
            )
            if cand is not None and cand.cum_cost < ss.cum_cost:
                improved.append(cand)
            else:
                improved.append(ss)
        return improved
