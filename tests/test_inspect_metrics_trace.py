"""Tests for topology metrics, cost attribution and arrival traces."""

import networkx as nx
import pytest

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.embedding.inspect import attribute_cost
from repro.exceptions import ConfigurationError, DisconnectedNetworkError
from repro.network.generator import generate_network
from repro.network.metrics import (
    clustering_coefficient,
    degree_histogram,
    topology_stats,
)
from repro.network.topologies import grid, ring
from repro.sfc.generator import generate_dag_sfc
from repro.engine import EmbeddingEngine
from repro.sim.trace import generate_trace, replay
from repro.solvers import MbbeEmbedder, MinvEmbedder

from .conftest import build_line_graph, build_square_graph


class TestTopologyStats:
    def test_ring_exact(self):
        g = ring(6)
        s = topology_stats(g, distance_samples=None)
        assert s.num_nodes == 6 and s.num_links == 6
        assert s.average_degree == pytest.approx(2.0)
        assert s.diameter == 3
        # Ring distances from any node: 1,1,2,2,3 -> mean 1.8.
        assert s.average_hop_distance == pytest.approx(1.8)
        assert s.clustering == 0.0

    def test_grid_diameter(self):
        s = topology_stats(grid(3, 4), distance_samples=None)
        assert s.diameter == (3 - 1) + (4 - 1)

    def test_matches_networkx_on_random(self):
        net = generate_network(NetworkConfig(size=40, connectivity=4.0, n_vnf_types=3), rng=3)
        g = net.graph
        nxg = nx.Graph((l.u, l.v) for l in g.links())
        s = topology_stats(g, distance_samples=None)
        assert s.diameter == nx.diameter(nxg)
        assert s.average_hop_distance == pytest.approx(
            nx.average_shortest_path_length(nxg)
        )

    def test_sampling_approximates_full(self):
        net = generate_network(NetworkConfig(size=120, connectivity=5.0, n_vnf_types=3), rng=4)
        full = topology_stats(net.graph, distance_samples=None)
        sampled = topology_stats(net.graph, distance_samples=30, rng=1)
        assert sampled.average_hop_distance == pytest.approx(
            full.average_hop_distance, rel=0.15
        )
        assert sampled.diameter <= full.diameter

    def test_disconnected_raises(self):
        g = build_line_graph(3)
        g.add_node(9)
        with pytest.raises(DisconnectedNetworkError):
            topology_stats(g, distance_samples=None)

    def test_degree_histogram(self):
        hist = degree_histogram(build_line_graph(4))
        assert hist == {1: 2, 2: 2}

    def test_clustering_triangle(self):
        g = build_square_graph()  # 0-1-2-3-0 + 0-2: triangles 012 and 023
        assert clustering_coefficient(g, 1) == pytest.approx(1.0)
        assert clustering_coefficient(g, 0) == pytest.approx(2 / 3)


class TestCostAttribution:
    @pytest.fixture
    def solved(self):
        net = generate_network(NetworkConfig(size=40, connectivity=4.0, n_vnf_types=6), rng=7)
        dag = generate_dag_sfc(SfcConfig(size=5), n_vnf_types=6, rng=8)
        r = MbbeEmbedder().embed(net, dag, 0, 39, FlowConfig())
        assert r.success
        return net, r

    def test_layers_sum_to_total(self, solved):
        net, r = solved
        attr = attribute_cost(net, r.embedding, FlowConfig())
        assert sum(lc.total for lc in attr.layers) == pytest.approx(attr.total)
        assert attr.total == pytest.approx(r.total_cost)

    def test_tail_layer_is_pure_link(self, solved):
        net, r = solved
        attr = attribute_cost(net, r.embedding, FlowConfig())
        tail = attr.layers[-1]
        assert tail.layer == r.embedding.dag.omega + 1
        assert tail.vnf_rental == 0.0 and tail.merger_rental == 0.0
        assert tail.inner_link_cost == 0.0

    def test_mergers_separated(self, solved):
        net, r = solved
        attr = attribute_cost(net, r.embedding, FlowConfig())
        merger_total = sum(lc.merger_rental for lc in attr.layers)
        assert merger_total > 0  # size-5 SFC has two mergers
        serial_layers = [
            lc for lc in attr.layers[:-1]
            if not r.embedding.dag.layer(lc.layer).has_merger
        ]
        assert all(lc.merger_rental == 0.0 for lc in serial_layers)

    def test_format_table(self, solved):
        net, r = solved
        text = attribute_cost(net, r.embedding, FlowConfig()).format_table()
        assert "layer" in text and "sum" in text

    def test_dominant_layer(self, solved):
        net, r = solved
        attr = attribute_cost(net, r.embedding, FlowConfig())
        dom = attr.dominant_layer()
        assert dom.total == max(lc.total for lc in attr.layers)


class TestTrace:
    def test_deterministic(self):
        kw = dict(steps=50, n_nodes=20, n_vnf_types=8, sfc=SfcConfig(size=3))
        a = generate_trace(rng=5, **kw)
        b = generate_trace(rng=5, **kw)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert ea.step == eb.step
            assert ea.request.dag == eb.request.dag
            assert ea.departure_step == eb.departure_step

    def test_arrival_probability_respected(self):
        t = generate_trace(
            steps=400, n_nodes=20, n_vnf_types=8, sfc=SfcConfig(size=3),
            arrival_probability=0.25, rng=6,
        )
        assert 60 <= len(t) <= 140  # ~100 expected

    def test_zero_probability_empty(self):
        t = generate_trace(
            steps=50, n_nodes=20, n_vnf_types=8, sfc=SfcConfig(size=3),
            arrival_probability=0.0, rng=1,
        )
        assert len(t) == 0 and t.offered_load == 0.0

    def test_offered_load_positive(self):
        t = generate_trace(
            steps=100, n_nodes=20, n_vnf_types=8, sfc=SfcConfig(size=3),
            mean_hold=20.0, rng=2,
        )
        assert t.offered_load > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_trace(steps=0, n_nodes=5, n_vnf_types=8, sfc=SfcConfig(size=3))
        with pytest.raises(ConfigurationError):
            generate_trace(
                steps=5, n_nodes=5, n_vnf_types=8, sfc=SfcConfig(size=3), mean_hold=0.5
            )

    def test_replay_paired_traces(self):
        cfg = NetworkConfig(
            size=30, connectivity=4.0, n_vnf_types=8, deploy_ratio=0.4,
            vnf_capacity=2.0, link_capacity=3.0,
        )
        net = generate_network(cfg, rng=9)
        trace = generate_trace(
            steps=60, n_nodes=30, n_vnf_types=8, sfc=SfcConfig(size=3),
            mean_hold=15.0, rng=10,
        )
        results = {}
        for solver in (MbbeEmbedder(), MinvEmbedder()):
            engine = EmbeddingEngine(net, solver)
            replay(trace, engine, rng=11)
            results[solver.name] = engine.stats()
        mbbe, minv = results["MBBE"], results["MINV"]
        assert mbbe["counters"]["dispatched"] == minv["counters"]["dispatched"] == len(trace)
        assert mbbe["acceptance_ratio"] >= minv["acceptance_ratio"] - 0.05
        # All departures processed: no more active than accepted.
        for stats in results.values():
            assert 0 <= stats["active"] <= stats["counters"]["accepted"]
