"""MBBE's keyed candidate kernel against a build-everything oracle.

``MbbeEmbedder._pair_subsolutions`` keys every combo of a pair's
allocation product and builds combos in key order only while they can
still make the parent's ``X_d`` cut. The oracle is the loop it replaced,
one level up: every parent the solver expands is expanded again with each
pair building every combo through :func:`evaluate_layer_candidate` (with
the sequential re-routing fallback) and a fresh round memo, and what the
two expansions keep — a stable sort on ``cum_cost``, then the first
``X_d * scale`` — must agree exactly: the same survivors, in the same
order, with equal ``repr(cum_cost)``. Each keyed pair is also checked
against the kernel's contract: a forced combo's key never exceeds the
layer cost its build reached, priced rounds build every forced combo, and
every combo left unbuilt is keyed above the parent's bar.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.constraints.registry import parse_constraint_args
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.network.graph import Graph
from repro.network.shortest import SearchMemo, dijkstra
from repro.sfc.generator import generate_dag_sfc
from repro.solvers import mbbe as mbbe_module
from repro.solvers.common import evaluate_layer_candidate
from repro.solvers.counts import flat_counts
from repro.solvers.mbbe import MbbeEmbedder
from repro.solvers.mbbe_s import MbbeSteinerEmbedder


def oracle_pair(solver, route, network, flow, parent, l, layer, bst, merger_node, admit,
                dij_start, link_f, cap, cset):
    """The full-materialisation loop: every feasible combo, product order.

    ``route`` is the sequential fallback router
    (``MbbeEmbedder._route_combo_sequential``); ``cap`` the candidate cap
    of the round.
    """
    graph = network.graph
    phi = layer.phi
    weight = cset.link_weight if cset.prices_links else None
    dij_merger = dijkstra(
        graph, merger_node, targets=bst.node_set, link_filter=link_f, weight=weight
    )
    candidates = []
    for gamma in range(1, phi + 1):
        t = layer.vnf_at(gamma)
        nodes = [
            n
            for n in bst.nodes_hosting(t, admit=lambda n, t=t: admit(n, t))
            if dij_start.reachable(n) and dij_merger.reachable(n)
        ]
        if not nodes:
            return [], []
        nodes.sort(
            key=lambda n, t=t: (
                dij_start.cost_to(n)
                + network.rental_price(n, t) * flow.size
                + dij_merger.cost_to(n),
                n,
            )
        )
        candidates.append(nodes[:cap])
    out = []
    combos = list(itertools.product(*candidates))
    for combo in combos:
        assignment = {g: combo[g - 1] for g in range(1, phi + 1)}
        assignment[phi + 1] = merger_node
        ss = evaluate_layer_candidate(
            network, flow, parent, l, layer,
            assignment=assignment,
            inter_paths={g: dij_start.path_to(combo[g - 1]) for g in range(1, phi + 1)},
            inner_paths={
                g: dij_merger.path_to(combo[g - 1]).reversed() for g in range(1, phi + 1)
            },
            constraints=cset,
        )
        if ss is None:
            ss = route(solver, network, flow, parent, l, layer, assignment, merger_node, cset)
        if ss is not None:
            out.append(ss)
    return out, combos


def signature(ss) -> tuple[Any, ...]:
    """Everything a sub-solution contributes downstream, floats by repr."""
    return (
        ss.end_node,
        sorted(ss.placements.items()),
        sorted((pos, p.nodes) for pos, p in ss.inter_paths.items()),
        sorted((pos, p.nodes) for pos, p in ss.inner_paths.items()),
        repr(ss.layer_cost),
        repr(ss.cum_cost),
        sorted(flat_counts(ss.vnf_counts).items()),
        sorted(flat_counts(ss.link_counts).items()),
    )


def cut(pair, keep) -> list[tuple[Any, ...]]:
    """What MBBE keeps of a pair: a stable sort on cost, then the first
    ``keep``. With ``keep=None`` (MBBE-S) the whole list, in product order."""
    if keep is not None:
        pair = sorted(pair, key=lambda ss: ss.cum_cost)[:keep]
    return [signature(ss) for ss in pair]


@dataclass
class KernelLog:
    """What the kernel did across one solve, for coverage assertions."""

    parents: int = 0
    pairs: int = 0
    combos: int = 0
    scored_combos: int = 0
    scored_pairs: int = 0
    #: pairs built whole, unkeyed (MBBE-S's ``keep=None``).
    unscored_pairs: int = 0
    #: forced combos built under the bar, and those keyed above it.
    forced_built: int = 0
    forced_unbuilt: int = 0
    #: forced combos with a finite key whose build returned a sub-solution
    #: (each checked against its bound).
    bounded: int = 0
    #: forced combos of rounds that price links (keyed -inf, all built).
    priced_forced: int = 0
    #: scored (not forced) combos the kernel built that evaluated to None:
    #: only ``admit_counts`` can reject those.
    scored_vetoed: int = 0
    unbuilt: int = 0
    rescued: int = 0
    evaluated: list[tuple[tuple[int, ...], bool]] = field(default_factory=list)


class KernelCheck:
    """Re-derives every parent MBBE expands with :func:`oracle_pair` pairs.

    Installed on the class (not as a subclass: every ``Embedder`` subclass
    must be reachable from the solver registry), so MBBE's own calls and
    MBBE-S's ``keep=None`` call through ``super()`` are both checked.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.log = KernelLog()
        #: relative error injected into every key, alternating in sign.
        self.score_noise = 0.0
        #: True while the oracle re-expands a parent.
        self.oracle = False
        self.expand = MbbeEmbedder._expand_parent
        self.kernel = MbbeEmbedder._pair_subsolutions
        self.route = MbbeEmbedder._route_combo_sequential
        self.evaluate = mbbe_module.evaluate_layer_candidate
        self.score = mbbe_module._score_combos
        self.table = mbbe_module._pair_table
        #: per keyed pair: (combos, exact forced, noisy forced, noisy scored, priced)
        self.splits: list[tuple[Any, ...]] = []
        check = self

        def expand_parent(solver, *args):
            return check.parent(solver, *args)

        def pair_subsolutions(solver, *args, keep, built):
            return check.pair(solver, args, keep, built)

        def route(solver, *args):
            ss = check.route(solver, *args)
            if not check.oracle:
                check.log.rescued += ss is not None
            return ss

        monkeypatch.setattr(MbbeEmbedder, "_expand_parent", expand_parent)
        monkeypatch.setattr(MbbeEmbedder, "_pair_subsolutions", pair_subsolutions)
        monkeypatch.setattr(MbbeEmbedder, "_route_combo_sequential", route)
        monkeypatch.setattr(mbbe_module, "evaluate_layer_candidate", self.evaluated)
        monkeypatch.setattr(mbbe_module, "_score_combos", self.scored)
        monkeypatch.setattr(mbbe_module, "_pair_table", self.pair_table)

    def pair_table(self, network, flow, layer, bst, merger_node, admit, dij_start, search,
                   cap, cset):
        """Build the pair's table, or under the oracle hand its raw inputs
        through in its place, for :func:`oracle_pair`."""
        if self.oracle:
            return bst, admit, dij_start, cap
        return self.table(
            network, flow, layer, bst, merger_node, admit, dij_start, search, cap, cset
        )

    def evaluated(self, network, flow, parent, l, layer, assignment, *args, **kwargs):
        """Log each evaluation's parallel placements and whether it built."""
        ss = self.evaluate(network, flow, parent, l, layer, assignment, *args, **kwargs)
        if layer.has_merger:
            combo = tuple(assignment[g] for g in range(1, layer.phi + 1))
            self.log.evaluated.append((combo, ss is not None))
        return ss

    def scored(self, *args, bound_forced):
        forced, scored = self.score(*args, bound_forced=bound_forced)
        noise = self.score_noise

        def noisy(keyed):
            return [(k * (1 + (noise if i % 2 else -noise)), i) for k, i in keyed]

        split = (noisy(forced), noisy(scored))
        self.splits.append((args[4].combos, forced, *split, not bound_forced))
        return split

    def parent(self, solver, network, flow, parent, l, layer, stats, scale, cset, memo):
        """Expand ``parent`` with the kernel, then with every pair built
        whole and a fresh memo; what the caller keeps must agree."""
        got = self.expand(solver, network, flow, parent, l, layer, stats, scale, cset, memo)
        fresh = mbbe_module._RoundMemo(network, memo.weight)
        fresh.searches = SearchMemo()  # never a view's shared searches
        self.oracle = True
        try:
            full = self.expand(
                solver, network, flow, parent, l, layer, dict(stats), scale, cset, fresh
            )
        finally:
            self.oracle = False
        assert cut(got, solver.x_d * scale) == cut(full, solver.x_d * scale)
        self.log.parents += 1
        return got

    def pair(self, solver, args, keep, built):
        network, flow, parent, l, layer, merger_node, table, link_f, cset, stats = args
        if self.oracle:
            bst, admit, dij_start, cap = table
            return oracle_pair(
                solver, self.route, network, flow, parent, l, layer, bst, merger_node,
                admit, dij_start, link_f, cap, cset,
            )[0]
        log = self.log
        scored_before = stats["combos_scored"]
        built_before = stats["combos_materialised"]
        log.evaluated.clear()
        self.splits.clear()
        got = self.kernel(solver, *args, keep=keep, built=built)
        scored = stats["combos_scored"] - scored_before
        n_built = stats["combos_materialised"] - built_before
        log.pairs += 1
        if keep is None:
            # MBBE-S builds the whole product, unkeyed.
            assert scored == 0 and not self.splits
            log.unscored_pairs += 1
            log.combos += n_built
            return got
        if not self.splits:
            return got  # no candidate for some position: an empty product
        (combos, exact_forced, forced, passing, priced), = self.splits
        assert priced == cset.prices_links
        n_combos = len(combos)
        assert scored == n_combos
        log.scored_pairs += 1
        log.combos += n_combos
        log.scored_combos += n_combos
        log.unbuilt += n_combos - n_built
        evaluated = {combo for combo, _ in log.evaluated}
        failed = {combo for combo, ok in log.evaluated if not ok}
        log.scored_vetoed += sum(combos[idx] in failed for _, idx in passing)

        phi = layer.phi
        bar = built[keep - 1] * (1.0 + mbbe_module._SCORE_BAND) if len(built) >= keep else None
        for key, idx in forced + passing:
            if combos[idx] not in evaluated:
                # Left unbuilt: only once the parent's bar is full, and
                # only with a key above it.
                assert bar is not None and parent.cum_cost + key > bar
        got_by_combo = {
            tuple(ss.placements[pos] for pos in sorted(ss.placements) if pos.gamma <= phi): ss
            for ss in got
        }
        for key, idx in exact_forced:
            combo = combos[idx]
            if priced:
                # Priced rounds key forced combos -inf and build them all.
                assert key == -math.inf and combo in evaluated
                log.priced_forced += 1
            if combo in evaluated:
                log.forced_built += 1
            else:
                log.forced_unbuilt += 1
            ss = got_by_combo.get(combo)
            if ss is not None and not priced:
                # The bound never exceeds the layer cost the build reached.
                layer_cost = ss.cum_cost - parent.cum_cost
                assert key <= layer_cost + 16 * math.ulp(ss.cum_cost)
                log.bounded += 1
        return got


@pytest.fixture
def check(monkeypatch: pytest.MonkeyPatch) -> KernelCheck:
    return KernelCheck(monkeypatch)


def tenths(network: CloudNetwork) -> CloudNetwork:
    """The same network with every price on a coarse grid of tenths.

    Many combos then cost the same in exact arithmetic, while 0.1 is not a
    binary fraction: summed in different orders, their float costs and
    scores differ in the last ulps — the near-ties the score band is for.
    """
    graph = Graph()
    for link in network.graph.links():
        graph.add_link(
            link.u, link.v, price=round(link.price / 5) / 10, capacity=link.capacity
        )
    out = CloudNetwork(graph)
    for node in network.graph.nodes():
        for t, inst in network.deployments.instances_at(node):
            out.deploy(node, t, price=round(inst.price / 5) / 10, capacity=inst.capacity)
    return out


def solve(check, *, seed, size, capacity, sfc_size, constraint=None, steiner=False,
          n_vnf_types=6, connectivity=4.0, ties=False, score_noise=0.0,
          **solver_kwargs) -> tuple[KernelLog, Any]:
    rng = np.random.default_rng(seed)
    network = generate_network(
        NetworkConfig(
            size=size,
            connectivity=connectivity,
            n_vnf_types=n_vnf_types,
            deploy_ratio=0.6,
            vnf_capacity=capacity,
            link_capacity=capacity,
        ),
        rng,
    )
    if ties:
        network = tenths(network)
    dag = generate_dag_sfc(SfcConfig(size=sfc_size, max_parallel=3), n_vnf_types, rng)
    src, dst = (int(v) for v in rng.choice(size, size=2, replace=False))
    solver = (MbbeSteinerEmbedder if steiner else MbbeEmbedder)(**solver_kwargs)
    check.log = KernelLog()
    check.score_noise = score_noise
    result = solver.embed(
        network, dag, src, dst, FlowConfig(),
        rng=np.random.default_rng(seed),
        constraints=parse_constraint_args([constraint] if constraint else None),
    )
    return check.log, result


#: Paths of two or more hops cost 6 > 5: a per-path veto on most combos.
DELAY = "delay:budget=5,per_hop_delay=3"
#: Two rival pairs plus three spread categories: an ``admit_counts`` veto
#: on combos that stack or pair categories on one cheap node.
AFFINITY = "affinity:pair=1-2,pair=3-4,spread=1,spread=2,spread=5"


@given(
    seed=st.integers(0, 10_000),
    size=st.integers(12, 36),
    capacity=st.sampled_from([1.0, 2.0, 3.0, 100.0]),
    sfc_size=st.integers(3, 5),
    constraint=st.sampled_from([None, DELAY, AFFINITY]),
    x_d=st.integers(1, 4),
    candidate_cap=st.integers(1, 3),
    retries=st.integers(0, 1),
    ties=st.booleans(),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_kernel_matches_oracle_on_random_instances(
    check, seed, size, capacity, sfc_size, constraint, x_d, candidate_cap,
    retries, ties,
):
    solve(
        check, seed=seed, size=size, capacity=capacity, sfc_size=sfc_size,
        constraint=constraint, x_d=x_d, candidate_cap=candidate_cap, retries=retries,
        ties=ties,
    )


def test_scores_off_by_half_the_band_change_nothing(check):
    # A score sums the exact cost's terms in another order. Whatever that
    # error, up to the band, the built survivors must not change; on the
    # tenths grid many combos tie exactly, so the error reorders them.
    scored_pairs = 0
    for seed in range(20):
        log, _ = solve(check, seed=seed, size=30, capacity=100.0,
                       sfc_size=5, ties=True, score_noise=mbbe_module._SCORE_BAND / 2)
        scored_pairs += log.scored_pairs
    assert scored_pairs


def test_tight_capacities_build_naive_overflows_through_the_fallback(check):
    # Forced combos under the parent's bar are built and rescued by the
    # sequential router; the others are keyed by their bound and left
    # unbuilt when it lies above the bar.
    log, result = solve(check, seed=1, size=30, capacity=2.0, sfc_size=5)
    assert result.success
    assert log.scored_pairs and log.forced_built and log.rescued and log.unbuilt
    assert log.bounded and log.forced_unbuilt


def test_delay_budget_vetoed_paths_are_built(check):
    # Vetoed combos are forced. In the unpriced first round they are keyed
    # by their bound; once the delay multiplier prices links, every forced
    # combo is keyed -inf and built (asserted per pair by the check).
    log, result = solve(check, seed=1, size=30, capacity=100.0, sfc_size=5,
                        constraint=DELAY)
    assert log.scored_pairs and log.forced_built
    assert result.stats["constraint_rounds"] > 1 and log.priced_forced


def test_anti_affinity_vetoes_combos_scored_inside_the_band(check):
    log, result = solve(check, seed=0, size=30, capacity=100.0, sfc_size=5,
                        constraint=AFFINITY)
    assert result.success
    assert log.scored_vetoed and log.unbuilt


def test_products_under_the_cut_are_cut_at_the_parent_bar(check):
    # With one candidate per position every pair's product is one combo,
    # never more than a pair's own cut; the parent's bar, full after its
    # first X_d pairs, still leaves later pairs' combos unbuilt.
    log, result = solve(check, seed=3, size=30, capacity=100.0, sfc_size=5,
                        candidate_cap=1)
    assert result.success and log.pairs == log.scored_pairs > 0
    assert log.combos == log.pairs and log.unbuilt
    assert result.stats["combos_scored"] == log.combos


def test_mbbe_s_builds_the_whole_product(check):
    log, result = solve(check, seed=1, size=30, capacity=2.0, sfc_size=5,
                        steiner=True)
    assert result.success and log.pairs == log.unscored_pairs > 0
    assert result.stats["combos_scored"] == 0
    assert result.stats["combos_materialised"] == log.combos


def test_work_counters_are_reported(check):
    log, result = solve(check, seed=2, size=30, capacity=100.0, sfc_size=5)
    assert log.unbuilt > 0 and log.parents > 0
    assert result.stats["combos_scored"] == log.scored_combos
    assert result.stats["combos_materialised"] == log.combos - log.unbuilt
