"""Breadth-first Backtracking Embedding — Algorithm 1 (§4).

Layer by layer, BBE

1. **forward-searches** (§4.2) from the previous layer's end node until the
   BFS ring union hosts every category the layer needs (with real-time
   capacity), producing an FST;
2. for every merger-hosting node found, **backward-searches** (§4.3) within
   the forward node set until the parallel VNFs are covered again, producing
   a BST;
3. **generates candidate sub-solutions** (§4.4) for every FST–BST pair: all
   combinations of parallel-VNF allocations in the BST, all inner-layer
   real-paths enumerable from the BST, all inter-layer real-paths enumerable
   from the FST; infeasible combinations are dropped;
4. stores survivors in the sub-solution tree and repeats; finally each
   layer-``omega`` sub-solution is connected to the destination with a
   minimum-cost path and the cheapest complete candidate wins.

Pure BBE is exponential (the paper's §4.5 complexity analysis); the
enumeration caps below (``max_paths_per_pair`` ≈ the paper's *h*, plus
assignment/combination/frontier guards) keep the Python implementation
usable while remaining exhaustive on the small instances where BBE is
actually run. Lifting every cap (``None``) recovers the paper-literal
algorithm.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Mapping

from ..config import FlowConfig
from ..constraints.base import ConstraintSet
from ..embedding.base import Embedder
from ..embedding.mapping import Embedding
from ..exceptions import NoSolutionError
from ..network.cloud import CloudNetwork
from ..network.graph import Link
from ..network.paths import Path
from ..network.shortest import CAPACITY_EPS, BfsRings, bfs_rings
from ..sfc.dag import DagSfc, Layer
from ..types import MERGER_VNF, EdgeKey, NodeId
from ..utils.rng import RngStream
from .common import coverage_stop, evaluate_layer_candidate, vnf_admit
from .counts import flat_counts
from .searchtree import SearchTree
from .subsolution import SubSolution, SubSolutionTree

__all__ = ["BbeEmbedder"]


def _residual_link_filter(
    network: CloudNetwork, link_counts: Mapping[EdgeKey, int], rate: float
) -> Callable[[Link], bool]:
    """Admit links that can absorb at least one more charged use.

    This closure is the hottest predicate in the solver core (one call per
    relaxed edge of every Dijkstra/BFS), so the counts are flattened to a
    plain dict once and its bound ``get`` is captured.
    """
    counts_get = flat_counts(link_counts).get

    def _filter(link: Link) -> bool:
        used = counts_get(link.key, 0)
        return (used + 1) * rate <= link.capacity + CAPACITY_EPS

    return _filter


class BbeEmbedder(Embedder):
    """Algorithm 1 with configurable enumeration budgets.

    Parameters
    ----------
    max_paths_per_pair:
        Real-paths enumerated per (node, tree) pair — the paper's *h*.
        ``None`` enumerates every shortest-hop path of the predecessor DAG.
    max_assignments_per_pair:
        First-step candidate allocations evaluated per FST–BST pair.
    max_combos_per_assignment:
        Path-choice combinations evaluated per allocation (second/third
        steps of §4.4.1).
    max_layer_subsolutions:
        Frontier bound per layer; the cheapest survive. ``None`` keeps all
        (paper-literal, exponential).
    max_forward_nodes:
        Optional cap on the forward node set (``None`` = unbounded; MBBE's
        ``X_max`` is the bounded flavour).
    """

    name = "BBE"

    def __init__(
        self,
        *,
        max_paths_per_pair: int | None = 3,
        max_assignments_per_pair: int | None = 512,
        max_combos_per_assignment: int | None = 64,
        max_layer_subsolutions: int | None = 2000,
        max_forward_nodes: int | None = None,
    ) -> None:
        self.max_paths_per_pair = max_paths_per_pair
        self.max_assignments_per_pair = max_assignments_per_pair
        self.max_combos_per_assignment = max_combos_per_assignment
        self.max_layer_subsolutions = max_layer_subsolutions
        self.max_forward_nodes = max_forward_nodes

    # -- Algorithm 1 ------------------------------------------------------------

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
        graph = network.graph
        if not graph.has_node(source) or not graph.has_node(dest):
            raise NoSolutionError("source or destination not in the network")
        cset = self.constraints
        tree = SubSolutionTree(source)
        frontier: list[SubSolution] = [tree.root]
        stats["layers"] = []

        for l in range(1, dag.omega + 1):
            layer = dag.layer(l)
            children: list[SubSolution] = []
            for parent in frontier:
                children.extend(
                    self._expand_parent(network, flow, parent, l, layer, tree, cset)
                )
            if not children:
                raise NoSolutionError(
                    f"no feasible sub-solution for layer {l} ({layer!r})"
                )
            children.sort(key=lambda ss: ss.cum_cost)
            if self.max_layer_subsolutions is not None:
                children = children[: self.max_layer_subsolutions]
            stats["layers"].append({"layer": l, "subsolutions": len(children)})
            frontier = children

        best = self._connect_destination(network, flow, frontier, dag, dest, tree)
        stats["tree_size"] = tree.size()
        stats["total_candidates"] = len(tree.layer_nodes(dag.omega + 1))
        return best.to_embedding(dag, source, dest)

    # -- per-parent expansion -------------------------------------------------------

    def _expand_parent(
        self,
        network: CloudNetwork,
        flow: FlowConfig,
        parent: SubSolution,
        l: int,
        layer: Layer,
        tree: SubSolutionTree,
        cset: ConstraintSet,
    ) -> list[SubSolution]:
        graph = network.graph
        admit = vnf_admit(network, parent.vnf_counts, flow.rate, cset)
        link_f = cset.link_filter(
            network, _residual_link_filter(network, parent.link_counts, flow.rate)
        )
        stop = coverage_stop(network, layer.required_types, admit)
        rings = bfs_rings(
            graph,
            parent.end_node,
            stop=stop,
            max_nodes=self.max_forward_nodes,
            link_filter=link_f,
        )
        kids: list[SubSolution] = []
        if rings.complete:
            kids = self._expand_from_rings(
                network, flow, parent, l, layer, rings, admit, link_f, tree, cset,
                exhaustive=False,
            )
        if kids or not cset:
            return kids
        # Constrained starvation fallback: coverage_stop sizes the search
        # region for hosting capacity alone, so a count- or path-level veto
        # can reject every host it found while a lawful alternative sits one
        # ring further out. Sweep the whole reachable component once before
        # declaring the layer dead.
        full = bfs_rings(
            graph, parent.end_node, stop=lambda _nodes: False, link_filter=link_f
        )
        if rings.complete and len(full.node_set) <= len(rings.node_set):
            return kids
        return self._expand_from_rings(
            network, flow, parent, l, layer, full, admit, link_f, tree, cset,
            exhaustive=True,
        )

    def _expand_from_rings(
        self,
        network: CloudNetwork,
        flow: FlowConfig,
        parent: SubSolution,
        l: int,
        layer: Layer,
        rings: BfsRings,
        admit: Callable[[NodeId, int], bool],
        link_f: Callable[[Link], bool],
        tree: SubSolutionTree,
        cset: ConstraintSet,
        *,
        exhaustive: bool,
    ) -> list[SubSolution]:
        graph = network.graph
        fst = SearchTree(network, rings)

        out: list[SubSolution] = []
        if not layer.has_merger:
            vnf_type = layer.parallel[0]
            for node in fst.nodes_hosting(vnf_type, admit=lambda n: admit(n, vnf_type)):
                for path in fst.enumerate_root_paths(node, self.max_paths_per_pair):
                    ss = evaluate_layer_candidate(
                        network,
                        flow,
                        parent,
                        l,
                        layer,
                        assignment={1: node},
                        inter_paths={1: path},
                        inner_paths={},
                        constraints=cset,
                    )
                    if ss is not None:
                        tree.insert(parent, ss)
                        out.append(ss)
            return out

        merger_nodes = fst.nodes_hosting(MERGER_VNF, admit=lambda n: admit(n, MERGER_VNF))
        fst_nodes = fst.node_set
        for merger_node in merger_nodes:
            bstop = (
                (lambda _nodes: False)
                if exhaustive
                else coverage_stop(network, layer.parallel, admit)
            )
            brings = bfs_rings(
                graph,
                merger_node,
                stop=bstop,
                allowed=lambda n: n in fst_nodes,
                link_filter=link_f,
            )
            if not exhaustive and not brings.complete:
                continue
            bst = SearchTree(network, brings)
            out.extend(
                self._pair_subsolutions(
                    network, flow, parent, l, layer, fst, bst, merger_node, admit, tree, cset
                )
            )
        return out

    def _pair_subsolutions(
        self,
        network: CloudNetwork,
        flow: FlowConfig,
        parent: SubSolution,
        l: int,
        layer: Layer,
        fst: SearchTree,
        bst: SearchTree,
        merger_node: NodeId,
        admit: Callable[[NodeId, int], bool],
        tree: SubSolutionTree,
        cset: ConstraintSet,
    ) -> list[SubSolution]:
        """§4.4.1's four generation steps for one FST–BST pair."""
        phi = layer.phi
        candidates: list[list[NodeId]] = []
        for gamma in range(1, phi + 1):
            t = layer.vnf_at(gamma)
            nodes = bst.nodes_hosting(t, admit=lambda n, t=t: admit(n, t))
            if not nodes:
                return []
            candidates.append(nodes)

        assignments: Iterable[tuple[NodeId, ...]] = itertools.product(*candidates)
        if self.max_assignments_per_pair is not None:
            assignments = itertools.islice(assignments, self.max_assignments_per_pair)

        out: list[SubSolution] = []
        for combo_nodes in assignments:
            assignment = {gamma: combo_nodes[gamma - 1] for gamma in range(1, phi + 1)}
            assignment[phi + 1] = merger_node
            # Second step: inner real-paths from the BST (BST paths run
            # merger -> node; the inner meta-path runs node -> merger).
            inner_options = [
                [p.reversed() for p in bst.enumerate_root_paths(n, self.max_paths_per_pair)]
                for n in combo_nodes
            ]
            # Third step: inter real-paths from the FST.
            inter_options = [
                fst.enumerate_root_paths(n, self.max_paths_per_pair)
                for n in combo_nodes
            ]
            per_gamma = [
                list(itertools.product(inner_options[i], inter_options[i]))
                for i in range(phi)
            ]
            combos: Iterable[tuple[tuple[Path, Path], ...]] = itertools.product(*per_gamma)
            if self.max_combos_per_assignment is not None:
                combos = itertools.islice(combos, self.max_combos_per_assignment)
            for path_choice in combos:
                inner_paths = {g: path_choice[g - 1][0] for g in range(1, phi + 1)}
                inter_paths = {g: path_choice[g - 1][1] for g in range(1, phi + 1)}
                ss = evaluate_layer_candidate(
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
                if ss is not None:  # fourth step: infeasible ones removed
                    tree.insert(parent, ss)
                    out.append(ss)
        return out

    # -- completion -------------------------------------------------------------------

    def _connect_destination(
        self,
        network: CloudNetwork,
        flow: FlowConfig,
        frontier: list[SubSolution],
        dag: DagSfc,
        dest: NodeId,
        tree: SubSolutionTree,
    ) -> SubSolution:
        """Lines 9–11: complete every omega-layer sub-solution, pick cheapest.

        One unfiltered Dijkstra from the destination serves every parent
        (links are undirected, so dest→end reversed is end→dest); only when
        that path collides with a parent's own reservations do we pay a
        per-parent capacity-filtered search. Profiling showed the naive
        per-parent Dijkstra dominating BBE's tail phase.
        """
        from .tails import connect_destination

        best = connect_destination(
            network, flow, frontier, dag, dest, tree, constraints=self.constraints
        )
        if best is None:
            raise NoSolutionError("no omega-layer sub-solution reaches the destination")
        return best
