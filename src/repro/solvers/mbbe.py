"""Mini-path Breadth-first Backtracking Embedding — MBBE (§4.5).

MBBE adds three complementary strategies on top of the BBE framework:

1. the forward search node set is capped at ``X_max`` nodes;
2. meta-paths of a candidate sub-solution are instantiated with
   **minimum-cost paths over the real-time network** (one Dijkstra from the
   layer start node for inter-layer paths, one from each merger candidate
   for inner-layer paths) instead of enumerating search-tree paths;
3. only the cheapest ``X_d`` sub-solutions per FST–BST pair enter the
   sub-solution tree, and each parent keeps at most ``X_d`` children overall
   — the "``X_d``-tree" whose size drives the paper's complexity bound
   ``O(k·phi·n²·X_max^phi)`` with ``k = (1 − X_d^{omega+1})/(1 − X_d)``.
   Every combo of an allocation product is keyed first — by its exact
   layer cost, or by a lower bound when only the sequential re-routing
   can build it — and combos are built in key order only while they can
   still make the parent's cut: one ``X_d`` bar shared by all of the
   parent's pairs (see :meth:`MbbeEmbedder._pair_subsolutions`).

Parents of one residual class — the counted links and instances their
filters reject (:func:`_residual_class`) — see the same residual network,
so their solver work is done once, at two lifetimes:

* **Min-cost searches live with the residual view.** A search is keyed by
  (root, rejected links, rate, the constraint set's link-vetoing members)
  and runs under a filter built from that key alone (:func:`_search_filter`),
  never from one parent's counts. The engine's view carries a memo
  (:attr:`CloudNetwork.searches`, LRU-bounded at
  :data:`~repro.network.state.VIEW_SEARCHES`) that the effects keep valid
  while they patch the view in place, so a later decision on the same view
  resumes an earlier one's search for its new targets
  (:meth:`DijkstraResult.settle`). A network without one (any plain
  network) and every round that prices links (the LARAC rounds, whose link
  weights change from round to round) use a round-local memo instead.
* **Rings and pair tables live with the solve round** (:class:`_RoundMemo`):
  forward rings per (layer, end node, class), and per FST–BST pair the
  backward rings, the candidate lists, the per-node paths, the path vetoes
  and the price sums (:class:`_PairTable`). Only the capacity screen
  against a parent's own counts, the scoring and the builds run per parent.

Two pragmatic knobs beyond the paper (both documented in DESIGN.md §3 and
benchmarked in the ablation benches):

* ``candidate_cap`` — per parallel VNF, only the most promising hosting
  nodes (scored by inter-path cost + rental + inner-path cost) enter the
  allocation product, bounding step 1 of §4.4.1 at ``candidate_cap^phi``;
* ``merger_cap`` — at most this many merger candidates per layer.

``expand_on_failure`` deviates from a literal reading of strategy 1: when a
capped forward search cannot cover the layer, the cap is doubled and the
search retried, preserving the paper's observation that "MBBE always results
in a solution while the benchmark algorithms do not". Pass ``False`` for the
paper-literal behaviour (the parent branch simply dies).
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Any, Callable, Iterable

from ..config import FlowConfig
from ..constraints.base import Constraint, ConstraintSet
from ..embedding.base import Embedder
from ..embedding.mapping import Embedding
from ..exceptions import NoSolutionError
from ..network.cloud import CloudNetwork
from ..network.graph import Link
from ..network.paths import Path
from ..network.shortest import (
    CAPACITY_EPS,
    BfsRings,
    DijkstraResult,
    LinkFilter,
    LinkWeight,
    SearchMemo,
    bfs_rings,
    dijkstra,
)
from ..sfc.dag import DagSfc, Layer
from ..types import MERGER_VNF, EdgeKey, NodeId, VnfTypeId
from ..utils.rng import RngStream
from .bbe import _residual_link_filter
from .common import coverage_stop, evaluate_layer_candidate, first_overflow, vnf_admit
from .counts import flat_counts
from .searchtree import SearchTree
from .subsolution import SubSolution, SubSolutionTree

__all__ = ["MbbeEmbedder"]

#: Relative slack above the ``X_d``-th survivor's exact ``cum_cost`` within
#: which a scored combo is still built. A score adds up the exact cost's
#: non-negative terms grouped and ordered differently, so the two differ by
#: a few ulps; the band is many orders wider than that and far narrower
#: than any real cost gap.
_SCORE_BAND = 1e-9


def _never_stop(_nodes: frozenset[NodeId]) -> bool:
    """Exhaust the reachable component (constrained-fallback searches)."""
    return False


#: A parent's memoised min-cost search: (root, targets) -> a result with
#: every target settled.
_Search = Callable[[NodeId, Iterable[NodeId]], DijkstraResult]


def _residual_class(
    network: CloudNetwork,
    parent: SubSolution,
    admit: Callable[[NodeId, VnfTypeId], bool],
    link_f: LinkFilter,
) -> tuple[frozenset[EdgeKey], frozenset[tuple[NodeId, VnfTypeId]]]:
    """The links and instances ``parent`` counts that ``link_f``/``admit``
    reject.

    Both filters judge an element the parent does not count as unused,
    the same way for every parent, and a counted element that passes
    would pass unused too (a use only tightens the capacity test; the
    constraint vetoes ignore usage). Two parents of one class therefore
    get equal verdicts on every link and instance of the view, and every
    search run for one serves the other.
    """
    get_link = network.graph.link
    links = frozenset(
        e for e in flat_counts(parent.link_counts) if not link_f(get_link(*e))
    )
    vnfs = frozenset(k for k in flat_counts(parent.vnf_counts) if not admit(*k))
    return links, vnfs


def _search_filter(
    network: CloudNetwork,
    rejected: frozenset[EdgeKey],
    rate: float,
    vetoes: tuple[Constraint, ...],
) -> LinkFilter:
    """The link filter of every search stored under (``rejected``, ``rate``,
    ``vetoes``): a link passes when it is not rejected, has room for one
    use at ``rate``, and no member of ``vetoes`` bans it.

    A parent of that class admits exactly these links: one it does not
    count passes its filter under the same test, and one it counts either
    is in ``rejected`` or passed a stricter test. The verdict depends on
    the link's capacity only through ``rate <= capacity + CAPACITY_EPS``,
    the test :meth:`SearchMemo.resized` watches.
    """
    if rejected:

        def admits(link: Link) -> bool:
            return rate <= link.capacity + CAPACITY_EPS and link.key not in rejected

    else:

        def admits(link: Link) -> bool:
            return rate <= link.capacity + CAPACITY_EPS

    if not vetoes:
        return admits
    return lambda link: admits(link) and all(c.admit_link(network, link) for c in vetoes)


class _PairTable:
    """One FST–BST pair's allocation product as every parent of one
    residual class sees it (built by :func:`_pair_table`).

    ``candidates`` holds per parallel position its admitted hosts, cheapest
    first and cut at the candidate cap; ``combos`` their product. Per
    candidate node: its inter path from the layer start (``inter``), its
    inner path to the merger (``inner``), the inter path's link set and
    price sum, and per position its rental plus inner-path price sum
    (``position_cost``). ``vetoed`` holds the nodes one of whose paths a
    per-path veto rejects. ``link_cost`` prices every link of those paths,
    ``link_capacity`` and ``vnf_capacity`` hold what the per-parent
    capacity screen reads.
    """

    __slots__ = (
        "candidates", "combos", "inter", "inner", "inter_set", "inter_cost",
        "position_cost", "merger_rental", "vetoed", "link_cost", "link_capacity",
        "vnf_capacity",
    )

    def __init__(self, candidates: list[list[NodeId]]) -> None:
        self.candidates = candidates
        self.combos = list(itertools.product(*candidates))
        self.inter: dict[NodeId, Path] = {}
        self.inner: dict[NodeId, Path] = {}
        self.inter_set: dict[NodeId, frozenset[EdgeKey]] = {}
        self.inter_cost: dict[NodeId, float] = {}
        self.position_cost: list[dict[NodeId, float]] = []
        self.merger_rental = 0.0
        self.vetoed: set[NodeId] = set()
        self.link_cost: dict[EdgeKey, float] = {}
        self.link_capacity: dict[EdgeKey, float] = {}
        self.vnf_capacity: dict[tuple[NodeId, VnfTypeId], float] = {}


def _pair_table(
    network: CloudNetwork,
    flow: FlowConfig,
    layer: Layer,
    bst: SearchTree,
    merger_node: NodeId,
    admit: Callable[[NodeId, VnfTypeId], bool],
    dij_start: DijkstraResult,
    search: _Search,
    cap: int,
    cset: ConstraintSet,
) -> _PairTable | None:
    """Build a pair's :class:`_PairTable`, or None when some parallel
    position has no candidate (an empty product)."""
    # Queried only for BST nodes (a subset of the forward set), so the
    # search may stop once the backward node set is settled.
    dij_merger = search(merger_node, bst.node_set)
    z = flow.size
    candidates: list[list[NodeId]] = []
    for gamma in range(1, layer.phi + 1):
        t = layer.vnf_at(gamma)
        nodes = [
            n
            for n in bst.nodes_hosting(t, admit=lambda n, t=t: admit(n, t))
            if dij_start.reachable(n) and dij_merger.reachable(n)
        ]
        if not nodes:
            return None
        nodes.sort(
            key=lambda n, t=t: (
                dij_start.cost_to(n) + network.rental_price(n, t) * z + dij_merger.cost_to(n),
                n,
            )
        )
        candidates.append(nodes[:cap])
    table = _PairTable(candidates)

    # Per-node real-paths, computed once outside the allocation product
    # (each node appears in many combos; reversing a path re-validates the
    # whole node sequence). Every candidate is reachable in both searches,
    # so both paths exist.
    get_link = network.graph.link
    link_cost = table.link_cost

    def price_link(e: EdgeKey) -> float:
        cost = link_cost.get(e)
        if cost is None:
            link = get_link(*e)
            cost = link_cost[e] = link.price * z
            table.link_capacity[e] = link.capacity
        return cost

    admit_path = cset.admit_path if cset.vetoes_paths else None
    inner_cost: dict[NodeId, float] = {}
    for nodes in candidates:
        for n in nodes:
            if n in table.inter:
                continue
            ip, mp = dij_start.path_to(n), dij_merger.path_to(n)
            assert ip is not None and mp is not None
            inner = mp.reversed()  # node -> merger
            table.inter[n], table.inner[n] = ip, inner
            edges = table.inter_set[n] = ip.edge_set()
            table.inter_cost[n] = sum(price_link(e) for e in edges)
            inner_cost[n] = sum(price_link(e) for e in inner.edges())
            if admit_path is not None and not (
                admit_path(network, flow, ip) and admit_path(network, flow, inner)
            ):
                table.vetoed.add(n)

    instance = network.deployments.instance

    def rental(n: NodeId, t: VnfTypeId) -> float:
        inst = instance(n, t)
        assert inst is not None  # every candidate was admitted
        table.vnf_capacity[(n, t)] = inst.capacity
        return inst.price * z

    # Per parallel position: node -> its rental plus its inner path.
    table.position_cost = [
        {n: rental(n, t) + inner_cost[n] for n in nodes}
        for t, nodes in zip(layer.parallel, candidates)
    ]
    table.merger_rental = rental(merger_node, MERGER_VNF)
    return table


class _RoundMemo:
    """The solver work one solve round (one ``_solve_once``) shares between
    parents of one residual class (:func:`_residual_class`).

    Min-cost searches go to the view's memo when the network carries one
    and the round does not price links, else to a round-local memo of the
    same class; either way a repeat resumes the stored run
    (:meth:`DijkstraResult.settle`), which settles new targets in the order
    a fresh run would. Forward rings are keyed by (layer, end node, class),
    pair tables by that plus (merger, exhaustive). The view and the link
    weight are fixed for the round, so rings and tables live and die with it.
    """

    __slots__ = ("network", "weight", "searches", "forward", "pairs")

    def __init__(self, network: CloudNetwork, weight: LinkWeight | None) -> None:
        self.network = network
        self.weight = weight
        shared = network.searches if weight is None else None
        self.searches = shared if shared is not None else SearchMemo()
        #: forward rings (None: the capped search failed) and the cap
        #: doublings it took.
        self.forward: dict[tuple[Any, ...], tuple[BfsRings | None, int]] = {}
        #: pair tables (None: incomplete backward rings or an empty product).
        self.pairs: dict[tuple[Any, ...], _PairTable | None] = {}

    def searcher(
        self, rejected: frozenset[EdgeKey], rate: float, vetoes: tuple[Constraint, ...]
    ) -> _Search:
        """Min-cost searches for a class that rejects ``rejected``, at
        ``rate``, under link vetoes ``vetoes``. A miss goes through the
        module's ``dijkstra``."""
        searches = self.searches
        graph = self.network.graph
        weight = self.weight
        link_f: LinkFilter | None = None

        def search(root: NodeId, targets: Iterable[NodeId]) -> DijkstraResult:
            nonlocal link_f
            key = (root, rejected, rate, vetoes)
            res = searches.get(key)
            if res is None:
                if link_f is None:
                    link_f = _search_filter(self.network, rejected, rate, vetoes)
                res = dijkstra(graph, root, targets=targets, link_filter=link_f, weight=weight)
                searches.put(key, rate, res)
            else:
                res.settle(targets)
            return res

        return search


class MbbeEmbedder(Embedder):
    """MBBE with the paper's ``X_max`` / ``X_d`` knobs.

    Parameters
    ----------
    x_max:
        Forward-search node-set cap (strategy 1).
    x_d:
        Sub-solution quota per FST–BST pair and per parent (strategy 3).
    candidate_cap:
        Hosting-node candidates kept per parallel VNF (see module docs).
    merger_cap:
        Merger candidates examined per layer, nearest (by FST ring) first.
    expand_on_failure:
        Retry an incomplete forward search with a doubled cap.
    beam_width:
        Optional global frontier cap across parents (``None`` disables; the
        paper has no global cap).
    retries:
        Under tight capacities, the pruned search can dead-end even though a
        feasible embedding exists; each retry re-runs the whole solve with
        every budget (``x_d``, ``candidate_cap``, ``merger_cap``) doubled.
        Zero retries is the paper-literal behaviour; retries never trigger
        in the paper's slack-capacity experiments.
    """

    name = "MBBE"

    def __init__(
        self,
        *,
        x_max: int = 64,
        x_d: int = 4,
        candidate_cap: int = 4,
        merger_cap: int = 6,
        expand_on_failure: bool = True,
        beam_width: int | None = None,
        retries: int = 2,
    ) -> None:
        if x_max < 1 or x_d < 1 or candidate_cap < 1 or merger_cap < 1:
            raise ValueError("x_max, x_d, candidate_cap, merger_cap must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.x_max = x_max
        self.x_d = x_d
        self.candidate_cap = candidate_cap
        self.merger_cap = merger_cap
        self.expand_on_failure = expand_on_failure
        self.beam_width = beam_width
        self.retries = retries

    # -- main loop --------------------------------------------------------------------

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
        scale = 1
        stats["escalations"] = 0
        # Deterministic work counters of the allocation-product kernel,
        # summed over escalations and constraint reprice rounds.
        stats.setdefault("combos_scored", 0)
        stats.setdefault("combos_materialised", 0)
        while True:
            try:
                return self._solve_once(network, dag, source, dest, flow, stats, scale)
            except NoSolutionError:
                if stats["escalations"] >= self.retries:
                    raise
                stats["escalations"] += 1
                scale *= 2

    def _solve_once(
        self,
        network: CloudNetwork,
        dag: DagSfc,
        source: NodeId,
        dest: NodeId,
        flow: FlowConfig,
        stats: dict[str, Any],
        scale: int,
    ) -> Embedding:
        graph = network.graph
        if not graph.has_node(source) or not graph.has_node(dest):
            raise NoSolutionError("source or destination not in the network")
        cset = self.constraints
        memo = _RoundMemo(network, cset.link_weight if cset.prices_links else None)
        tree = SubSolutionTree(source)
        frontier: list[SubSolution] = [tree.root]
        stats["layers"] = []
        stats["forward_expansions"] = 0

        for l in range(1, dag.omega + 1):
            layer = dag.layer(l)
            children: list[SubSolution] = []
            for parent in frontier:
                kids = self._expand_parent(
                    network, flow, parent, l, layer, stats, scale, cset, memo
                )
                # Strategy 3 (X_d-tree): keep the cheapest X_d per parent.
                kids.sort(key=lambda ss: ss.cum_cost)
                for ss in kids[: self.x_d * scale]:
                    tree.insert(parent, ss)
                    children.append(ss)
            if not children:
                raise NoSolutionError(
                    f"no feasible sub-solution for layer {l} ({layer!r})"
                )
            children.sort(key=lambda ss: ss.cum_cost)
            if self.beam_width is not None:
                children = children[: self.beam_width]
            stats["layers"].append({"layer": l, "subsolutions": len(children)})
            frontier = children

        from .tails import connect_destination

        best = connect_destination(network, flow, frontier, dag, dest, tree, constraints=cset)
        if best is None:
            raise NoSolutionError("no omega-layer sub-solution reaches the destination")
        stats["tree_size"] = tree.size()
        return best.to_embedding(dag, source, dest)

    # -- forward search with X_max ---------------------------------------------------------

    def _forward_search(
        self,
        network: CloudNetwork,
        parent: SubSolution,
        layer: Layer,
        admit: Callable[[NodeId, int], bool],
        link_f: LinkFilter,
        stats: dict[str, Any],
    ) -> BfsRings | None:
        cap = self.x_max
        n = network.graph.num_nodes
        while True:
            # A fresh stop predicate per attempt: coverage_stop is
            # incrementally stateful within a single search (see its docs).
            stop = coverage_stop(network, layer.required_types, admit)
            rings = bfs_rings(
                network.graph,
                parent.end_node,
                stop=stop,
                max_nodes=cap,
                link_filter=link_f,
            )
            if rings.complete:
                return rings
            if not self.expand_on_failure or cap >= n:
                return None
            cap = min(n, cap * 2)
            stats["forward_expansions"] += 1

    # -- per-parent expansion ---------------------------------------------------------------

    def _expand_parent(
        self,
        network: CloudNetwork,
        flow: FlowConfig,
        parent: SubSolution,
        l: int,
        layer: Layer,
        stats: dict[str, Any],
        scale: int,
        cset: ConstraintSet,
        memo: _RoundMemo,
    ) -> list[SubSolution]:
        admit = vnf_admit(network, parent.vnf_counts, flow.rate, cset)
        link_f = cset.link_filter(
            network, _residual_link_filter(network, parent.link_counts, flow.rate)
        )
        links, vnfs = _residual_class(network, parent, admit, link_f)
        search = memo.searcher(links, flow.rate, cset.link_vetoes)
        key = (l, parent.end_node, links, vnfs)
        hit = memo.forward.get(key)
        if hit is None:
            before = stats["forward_expansions"]
            rings = self._forward_search(network, parent, layer, admit, link_f, stats)
            memo.forward[key] = (rings, stats["forward_expansions"] - before)
        else:
            rings, expansions = hit
            stats["forward_expansions"] += expansions
        kids: list[SubSolution] = []
        if rings is not None:
            kids = self._expand_from_rings(
                network, flow, parent, l, layer, rings, admit, link_f, scale, cset,
                stats, memo, key, search, exhaustive=False,
            )
        if kids or not cset:
            return kids
        # Constrained starvation fallback: coverage_stop sizes the region for
        # hosting capacity alone, so a count- or path-level veto can reject
        # every host it found while a lawful alternative sits one ring
        # further out. Sweep the whole reachable component once before
        # declaring the layer dead.
        full = bfs_rings(
            network.graph, parent.end_node, stop=_never_stop, link_filter=link_f
        )
        if rings is not None and len(full.node_set) <= len(rings.node_set):
            return kids
        stats["constrained_expansions"] = stats.get("constrained_expansions", 0) + 1
        return self._expand_from_rings(
            network, flow, parent, l, layer, full, admit, link_f, scale, cset,
            stats, memo, key, search, exhaustive=True,
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
        link_f: LinkFilter,
        scale: int,
        cset: ConstraintSet,
        stats: dict[str, Any],
        memo: _RoundMemo,
        key: tuple[Any, ...],
        search: _Search,
        *,
        exhaustive: bool,
    ) -> list[SubSolution]:
        graph = network.graph
        fst = SearchTree(network, rings)
        # Strategy 2: one Dijkstra from the layer start node gives every
        # inter-layer min-cost path on the real-time network. Every node this
        # result is ever queried for lies in the forward node set, so the
        # search can stop once those are settled instead of settling the
        # whole graph.
        dij_start = search(parent.end_node, rings.node_set)

        if not layer.has_merger:
            return self._expand_single(
                network, flow, parent, l, layer, fst, admit, dij_start, scale, cset
            )

        fst_nodes = fst.node_set
        merger_candidates = [
            n
            for n in fst.nodes_hosting(MERGER_VNF, admit=lambda n: admit(n, MERGER_VNF))
            if dij_start.reachable(n)
        ]
        # Nearest mergers first (FST ring depth, then path cost). depth_of is
        # O(1) via the rings' materialized node -> ring-index map.
        merger_candidates.sort(key=lambda n: (rings.depth_of(n), dij_start.cost_to(n)))
        merger_candidates = merger_candidates[: self.merger_cap * scale]

        keep = self.x_d * scale
        # The cum_costs any pair of this parent built, ascending; the
        # keep-th is the bar every pair stops at.
        built: list[float] = []
        out: list[SubSolution] = []
        pairs = memo.pairs
        for merger_node in merger_candidates:
            bkey = (*key, merger_node, exhaustive)
            if bkey in pairs:
                table = pairs[bkey]
            else:
                bstop = (
                    _never_stop if exhaustive else coverage_stop(network, layer.parallel, admit)
                )
                brings = bfs_rings(
                    graph,
                    merger_node,
                    stop=bstop,
                    allowed=lambda n: n in fst_nodes,
                    link_filter=link_f,
                )
                table = pairs[bkey] = (
                    _pair_table(
                        network, flow, layer, SearchTree(network, brings), merger_node,
                        admit, dij_start, search, self.candidate_cap * scale, cset,
                    )
                    if exhaustive or brings.complete
                    else None
                )
            if table is None:
                continue
            pair = self._pair_subsolutions(
                network, flow, parent, l, layer, merger_node, table, link_f, cset,
                stats, keep=keep, built=built,
            )
            pair.sort(key=lambda ss: ss.cum_cost)
            out.extend(pair[:keep])  # strategy 3, per FST-BST pair
        return out

    def _expand_single(
        self,
        network: CloudNetwork,
        flow: FlowConfig,
        parent: SubSolution,
        l: int,
        layer: Layer,
        fst: SearchTree,
        admit: Callable[[NodeId, int], bool],
        dij_start: DijkstraResult,
        scale: int,
        cset: ConstraintSet,
    ) -> list[SubSolution]:
        vnf_type = layer.parallel[0]
        out: list[SubSolution] = []
        for node in fst.nodes_hosting(vnf_type, admit=lambda n: admit(n, vnf_type)):
            path = dij_start.path_to(node)
            if path is None:
                continue
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
                out.append(ss)
        out.sort(key=lambda ss: ss.cum_cost)
        return out[: self.x_d * scale]

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
        """Allocation product over pruned candidates, min-cost instantiation.

        Key first, then build. Every combo of the product gets a key from
        per-node precomputations (:func:`_score_combos`) that its build
        cannot undercut, beyond a few ulps:

        * a combo that passes the naive screen is keyed by its exact
          layer cost, summed in another order;
        * a forced combo — one that overflows a capacity naively or fails
          a per-path veto, so only the sequential re-routing can rescue
          it — is keyed by a lower bound on any route's cost. In a round
          that prices links the bound does not hold, so forced combos
          keep key −inf and are all built first.

        Combos are built in (key, product index) order, and the pair stops
        once the parent's bar is set and the next key lies above it plus
        :data:`_SCORE_BAND`. ``built`` holds the ascending ``cum_cost`` of
        every combo any of the parent's pairs built so far; the bar is its
        ``keep``-th entry.

        The feasible built combos come back in product order. The caller
        keeps the parent's cheapest ``keep``; a pair's own cut is the same
        size, so a combo left unbuilt could not have made either cut, and
        the caller's stable sorts see exactly what they would on every
        whole product. ``keep=None`` (MBBE-S) builds every combo.
        """
        phi = layer.phi
        combos = table.combos
        inter, inner = table.inter, table.inner

        def materialise(combo: tuple[NodeId, ...]) -> SubSolution | None:
            stats["combos_materialised"] += 1
            assignment = dict(enumerate(combo, 1))
            assignment[phi + 1] = merger_node
            ss = evaluate_layer_candidate(
                network,
                flow,
                parent,
                l,
                layer,
                assignment=assignment,
                inter_paths={g: inter[n] for g, n in enumerate(combo, 1)},
                inner_paths={g: inner[n] for g, n in enumerate(combo, 1)},
                constraints=cset,
            )
            if ss is None:
                # Shortest-path trees overlap near the merger, so the naive
                # min-cost instantiation can over-subscribe a link the layer
                # could route around. Retry routing the combo sequentially on
                # the residual network before discarding it.
                ss = self._route_combo_sequential(
                    network, flow, parent, l, layer, assignment, merger_node, cset
                )
            return ss

        if keep is None:
            return [ss for ss in map(materialise, combos) if ss is not None]

        stats["combos_scored"] += len(combos)
        forced, scored = _score_combos(
            flow, parent, layer, merger_node, table, bound_forced=not cset.prices_links
        )
        order = forced + scored
        order.sort()
        kept: dict[int, SubSolution] = {}
        base = parent.cum_cost
        for key, idx in order:
            if len(built) >= keep and base + key > built[keep - 1] * (1.0 + _SCORE_BAND):
                break
            ss = materialise(combos[idx])
            if ss is not None:
                kept[idx] = ss
                bisect.insort(built, ss.cum_cost)
        return [kept[idx] for idx in sorted(kept)]

    def _route_combo_sequential(
        self,
        network: CloudNetwork,
        flow: FlowConfig,
        parent: SubSolution,
        l: int,
        layer: Layer,
        assignment: dict[int, NodeId],
        merger_node: NodeId,
        cset: ConstraintSet,
    ) -> SubSolution | None:
        """Capacity-aware fallback routing for one allocation.

        Paths are found one meta-path at a time against the residual network
        (parent usage + what this layer has consumed so far); inter-layer
        paths may reuse the layer's already-opened multicast links for free.
        """
        graph = network.graph
        rate = flow.rate
        phi = layer.phi
        weight: LinkWeight | None = cset.link_weight if cset.prices_links else None
        layer_inner: dict[tuple[NodeId, NodeId], int] = {}
        inter_union: set[EdgeKey] = set()
        parent_link_get = flat_counts(parent.link_counts).get

        def residual_ok(link: Link) -> bool:
            key = link.key
            used = parent_link_get(key, 0)
            used += layer_inner.get(key, 0)
            used += 1 if key in inter_union else 0
            return (used + 1) * rate <= link.capacity + 1e-9

        def inter_filter(link: Link) -> bool:
            return link.key in inter_union or residual_ok(link)

        residual_ok = cset.link_filter(network, residual_ok)
        inter_filter = cset.link_filter(network, inter_filter)

        inter_paths: dict[int, Path] = {}
        for g in range(1, phi + 1):
            target = assignment[g]
            res = dijkstra(
                graph, parent.end_node, targets=(target,), link_filter=inter_filter,
                weight=weight,
            )
            p = res.path_to(target)
            if p is None:
                return None
            inter_paths[g] = p
            inter_union.update(p.edge_set())

        inner_paths: dict[int, Path] = {}
        for g in range(1, phi + 1):
            source = assignment[g]
            res = dijkstra(
                graph, source, targets=(merger_node,), link_filter=residual_ok,
                weight=weight,
            )
            p = res.path_to(merger_node)
            if p is None:
                return None
            inner_paths[g] = p
            for e in p.edges():
                layer_inner[e] = layer_inner.get(e, 0) + 1

        return evaluate_layer_candidate(
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


def _score_combos(
    flow: FlowConfig,
    parent: SubSolution,
    layer: Layer,
    merger_node: NodeId,
    table: _PairTable,
    *,
    bound_forced: bool,
) -> tuple[list[tuple[float, int]], list[tuple[float, int]]]:
    """Key a parallel layer's allocation product without building it.

    Returns ``(key, index)`` pairs into ``table.combos`` in two lists. The
    first holds the forced combos: those that overflow a VNF or link
    capacity against the parent's counts, or whose real-paths fail a
    per-path veto (``admit_path`` depends on the path alone). The capacity
    screen is :func:`first_overflow`, the evaluation's own test. The second
    holds every other combo, keyed by its incremental layer cost — rentals
    once per position (eq. 7), the inter-layer link union once (eq. 9),
    inner paths once per use (eq. 10) — summed in another order than
    :func:`evaluate_layer_candidate` sums it.

    With ``bound_forced``, a forced combo's key is a lower bound on the
    layer cost of any route the fallback finds: the merger's rental plus,
    per position, its rental and min-price inner path, plus the dearest
    min-price inter path (eq. 9 charges the union at least its dearest
    path). The fallback's filters admit only links the searches behind
    ``table.inter``/``table.inner`` admit, so its paths cost at least
    theirs — in link prices, which is why the bound needs a round whose
    searches are price-weighted. Without it the key is −inf.

    Everything but the capacity screen comes from ``table``, which every
    parent of the pair's residual class shares.
    """
    rate = flow.rate
    max_uses = layer.phi + 1  # the inter-layer union once, plus one use per inner path
    parent_vnf = flat_counts(parent.vnf_counts).get
    parent_link = flat_counts(parent.link_counts).get
    link_cost = table.link_cost
    inter_set = table.inter_set
    inter_cost = table.inter_cost
    per_position = table.position_cost
    fixed = table.merger_rental
    vetoed = table.vetoed

    # First add that overflows, against the parent's counts.
    link_over: dict[EdgeKey, int] = {}
    for e, capacity in table.link_capacity.items():
        over = first_overflow(parent_link(e, 0), capacity, rate, max_uses)
        if over is not None:
            link_over[e] = over
    vnf_over: dict[tuple[NodeId, VnfTypeId], int] = {}
    for key, capacity in table.vnf_capacity.items():
        over = first_overflow(parent_vnf(key, 0), capacity, rate, max_uses)
        if over is not None:
            vnf_over[key] = over
    types = (*layer.parallel, MERGER_VNF)
    inner_tight = (
        {n: [e for e in p.edges() if e in link_over] for n, p in table.inner.items()}
        if link_over
        else {}
    )

    def forced_key(combo: tuple[NodeId, ...]) -> float:
        if not bound_forced:
            return -math.inf
        key = fixed
        for g, n in enumerate(combo):
            key += per_position[g][n]
        return key + max(inter_cost[n] for n in combo)

    forced: list[tuple[float, int]] = []
    scored: list[tuple[float, int]] = []
    no_edges: frozenset[EdgeKey] = frozenset()
    for idx, combo in enumerate(table.combos):
        if vetoed and not vetoed.isdisjoint(combo):
            forced.append((forced_key(combo), idx))
            continue
        union = no_edges.union(*[inter_set[n] for n in combo])
        if vnf_over:
            uses: dict[tuple[NodeId, VnfTypeId], int] = {}
            for key in zip(combo + (merger_node,), types):
                if key in vnf_over:
                    uses[key] = uses.get(key, 0) + 1
            if any(k >= vnf_over[key] for key, k in uses.items()):
                forced.append((forced_key(combo), idx))
                continue
        if link_over:
            loads = {e: 1 for e in union if e in link_over}
            for n in combo:
                for e in inner_tight[n]:
                    loads[e] = loads.get(e, 0) + 1
            if any(k >= link_over[e] for e, k in loads.items()):
                forced.append((forced_key(combo), idx))
                continue
        score = fixed
        for g, n in enumerate(combo):
            score += per_position[g][n]
        for e in union:
            score += link_cost[e]
        scored.append((score, idx))
    return forced, scored
