"""Tests for min-cost routing and the local-search refiner."""

import pytest

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.embedding.costing import compute_cost
from repro.embedding.feasibility import verify_embedding
from repro.exceptions import NoSolutionError
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.sfc.builder import DagSfcBuilder
from repro.sfc.generator import generate_dag_sfc
from repro.solvers import (
    LocalSearchRefiner,
    MbbeEmbedder,
    RanvEmbedder,
    RefinedEmbedder,
    make_solver,
)
from repro.solvers.routing import route_min_cost
from repro.types import MERGER_VNF, Position

from .conftest import build_line_graph, build_square_graph


class TestRouteMinCost:
    def test_routes_fixed_placement(self):
        g = build_line_graph(5, price=1.0, capacity=100.0)
        net = CloudNetwork(g)
        net.deploy(1, 1, price=10.0, capacity=100.0)
        net.deploy(3, 2, price=10.0, capacity=100.0)
        dag = DagSfcBuilder().single(1).single(2).build()
        placements = {Position(1, 1): 1, Position(2, 1): 3}
        emb = route_min_cost(net, dag, 0, 4, placements, FlowConfig())
        verify_embedding(net, emb, FlowConfig())
        assert emb.inter_paths[Position(2, 1)].nodes == (1, 2, 3)

    def test_multicast_free_reuse(self):
        """A layer's second branch rides the already-opened link for free."""
        g = build_line_graph(3, price=1.0, capacity=1.0)  # capacity ONE use
        net = CloudNetwork(g)
        net.deploy(1, 1, price=1.0, capacity=10.0)
        net.deploy(1, 2, price=1.0, capacity=10.0)
        net.deploy(1, MERGER_VNF, price=1.0, capacity=10.0)
        dag = DagSfcBuilder().parallel(1, 2).build()
        placements = {Position(1, 1): 1, Position(1, 2): 1, Position(1, 3): 1}
        # Both inter paths need link 0-1; multicast shares it within capacity 1.
        emb = route_min_cost(net, dag, 0, 2, placements, FlowConfig(rate=1.0))
        verify_embedding(net, emb, FlowConfig(rate=1.0))

    def test_inner_paths_detour_around_saturation(self):
        # Square 0-1-2-3-0 with generous capacities except the direct link
        # 1-2, which fits only ONE of the two inner-layer paths.
        from repro.network.graph import Graph

        g = Graph()
        g.add_link(0, 1, price=1.0, capacity=5.0)
        g.add_link(1, 2, price=1.0, capacity=1.0)
        g.add_link(2, 3, price=1.0, capacity=5.0)
        g.add_link(3, 0, price=1.0, capacity=5.0)
        g.add_link(1, 3, price=1.0, capacity=5.0)
        net = CloudNetwork(g)
        net.deploy(1, 1, price=1.0, capacity=10.0)
        net.deploy(1, 2, price=1.0, capacity=10.0)
        net.deploy(2, MERGER_VNF, price=1.0, capacity=10.0)
        dag = DagSfcBuilder().parallel(1, 2).build()
        placements = {Position(1, 1): 1, Position(1, 2): 1, Position(1, 3): 2}
        emb = route_min_cost(net, dag, 0, 0, placements, FlowConfig(rate=1.0))
        verify_embedding(net, emb, FlowConfig(rate=1.0))
        # Two inner paths 1->2 required; the second detours via node 3.
        inner = sorted(
            emb.inner_paths[Position(1, g_)].nodes for g_ in (1, 2)
        )
        assert inner == [(1, 2), (1, 3, 2)]

    def test_unroutable_raises(self):
        g = build_line_graph(2, capacity=1.0)
        net = CloudNetwork(g)
        net.deploy(1, 1, price=1.0, capacity=10.0)
        net.deploy(0, 2, price=1.0, capacity=10.0)
        dag = DagSfcBuilder().single(1).single(2).build()
        placements = {Position(1, 1): 1, Position(2, 1): 0}
        with pytest.raises(NoSolutionError):
            route_min_cost(net, dag, 0, 1, placements, FlowConfig(rate=1.0))


@pytest.fixture(scope="module")
def ls_instance():
    cfg = NetworkConfig(size=50, connectivity=4.5, n_vnf_types=6)
    net = generate_network(cfg, rng=21)
    dag = generate_dag_sfc(SfcConfig(size=5), n_vnf_types=6, rng=22)
    return net, dag


class TestLocalSearch:
    def test_never_worsens_and_verifies(self, ls_instance):
        net, dag = ls_instance
        base = RanvEmbedder().embed(net, dag, 0, 49, FlowConfig(), rng=5)
        refiner = LocalSearchRefiner()
        refined, cost, moves = refiner.refine(net, base.embedding, FlowConfig())
        assert cost <= base.total_cost + 1e-9
        verify_embedding(net, refined, FlowConfig())
        assert cost == pytest.approx(compute_cost(net, refined, FlowConfig()).total)

    def test_improves_random_placements_substantially(self, ls_instance):
        net, dag = ls_instance
        gains = []
        for seed in range(4):
            plain = RanvEmbedder().embed(net, dag, 0, 49, FlowConfig(), rng=seed)
            ls = RefinedEmbedder(RanvEmbedder()).embed(
                net, dag, 0, 49, FlowConfig(), rng=seed
            )
            assert plain.success and ls.success
            gains.append(plain.total_cost - ls.total_cost)
        assert max(gains) > 0  # at least one instance strictly improved

    def test_mbbe_already_near_local_optimum(self, ls_instance):
        """MBBE's output should leave little for single-move search."""
        net, dag = ls_instance
        plain = MbbeEmbedder().embed(net, dag, 0, 49, FlowConfig())
        ls = RefinedEmbedder(MbbeEmbedder()).embed(net, dag, 0, 49, FlowConfig())
        assert ls.total_cost <= plain.total_cost + 1e-9
        assert ls.total_cost >= 0.85 * plain.total_cost  # small relative gain

    def test_refined_embedder_stats(self, ls_instance):
        net, dag = ls_instance
        r = RefinedEmbedder(RanvEmbedder()).embed(net, dag, 0, 49, FlowConfig(), rng=2)
        assert r.success
        assert r.stats["ls_gain"] >= 0
        assert r.stats["base_cost"] >= r.total_cost
        assert "base" in r.stats

    def test_zero_rounds_is_identity(self, ls_instance):
        net, dag = ls_instance
        base = RanvEmbedder().embed(net, dag, 0, 49, FlowConfig(), rng=7)
        refined, cost, moves = LocalSearchRefiner(max_rounds=0).refine(
            net, base.embedding, FlowConfig()
        )
        assert moves == 0
        assert cost == pytest.approx(base.total_cost)

    def test_registered_names(self):
        from repro.solvers import available_solvers

        names = available_solvers()
        assert "MINV+LS" in names
        assert make_solver("minv+ls").name == "MINV+LS"
        # Other bases are wrapped directly, under the same naming scheme.
        assert RefinedEmbedder(RanvEmbedder()).name == "RANV+LS"
