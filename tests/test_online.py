"""Online admission on one shared engine, and residual-view mechanics."""

import pytest

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.engine import EmbeddingEngine, EmbeddingRequest
from repro.exceptions import ConfigurationError
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.network.state import ResidualState
from repro.sfc.builder import DagSfcBuilder
from repro.sfc.generator import generate_dag_sfc
from repro.solvers import MbbeEmbedder, MinvEmbedder

from .conftest import build_line_graph


class TestResidualView:
    def test_to_network_reflects_usage(self):
        g = build_line_graph(3, price=1.0, capacity=2.0)
        net = CloudNetwork(g)
        net.deploy(1, 1, price=5.0, capacity=3.0)
        st = ResidualState(net)
        st.reserve_link(0, 1, 1.5)
        st.reserve_vnf(1, 1, 1.0)
        view = st.to_network()
        assert view.graph.link(0, 1).capacity == pytest.approx(0.5)
        assert view.graph.link(1, 2).capacity == pytest.approx(2.0)
        assert view.instance(1, 1).capacity == pytest.approx(2.0)
        assert view.instance(1, 1).price == pytest.approx(5.0)

    def test_saturated_resources_vanish(self):
        g = build_line_graph(3, price=1.0, capacity=2.0)
        net = CloudNetwork(g)
        net.deploy(1, 1, price=5.0, capacity=1.0)
        st = ResidualState(net)
        st.reserve_link(0, 1, 2.0)
        st.reserve_vnf(1, 1, 1.0)
        view = st.to_network()
        assert not view.graph.has_link(0, 1)
        assert not view.has_vnf(1, 1)
        assert view.graph.has_node(0)  # nodes remain

    def test_release_roundtrip(self):
        g = build_line_graph(3, price=1.0, capacity=2.0)
        net = CloudNetwork(g)
        st = ResidualState(net)
        st.reserve_link(0, 1, 1.5)
        st.release_link(0, 1, 1.5)
        assert st.link_used(0, 1) == 0.0

    def test_over_release_raises(self):
        g = build_line_graph(3, price=1.0, capacity=2.0)
        net = CloudNetwork(g)
        net.deploy(1, 1, price=5.0, capacity=1.0)
        st = ResidualState(net)
        from repro.exceptions import CapacityError

        with pytest.raises(CapacityError):
            st.release_link(0, 1, 0.5)
        with pytest.raises(CapacityError):
            st.release_vnf(1, 1, 0.5)


@pytest.fixture
def online_net():
    cfg = NetworkConfig(
        size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
        vnf_capacity=2.0, link_capacity=3.0,
    )
    return generate_network(cfg, rng=17)


def request(rid, *, size=3, seed=0, rate=1.0):
    dag = generate_dag_sfc(SfcConfig(size=size), n_vnf_types=6, rng=seed)
    return EmbeddingRequest(rid, dag, 0, 39, FlowConfig(rate=rate))


# The class keeps its historical name so its test ids stay stable; it now
# drives EmbeddingEngine directly.
class TestOnlineSimulator:
    def test_accept_and_stats(self, online_net):
        engine = EmbeddingEngine(online_net, MbbeEmbedder())
        r = engine.submit(request(1, seed=1))
        assert r.success
        assert engine.counters["dispatched"] == 1 and engine.counters["accepted"] == 1
        assert engine.stats()["acceptance_ratio"] == 1.0
        assert engine.active_count() == 1
        assert list(engine.active_ids()) == [1]

    def test_resources_actually_reserved(self, online_net):
        engine = EmbeddingEngine(online_net, MbbeEmbedder())
        r = engine.submit(request(1, seed=1))
        used_links = dict(engine.ledger.state.used_links())
        assert used_links  # some bandwidth held
        for key, count in r.cost.alpha_link.items():
            assert used_links[key] == pytest.approx(count * 1.0)

    def test_release_restores_capacity(self, online_net):
        engine = EmbeddingEngine(online_net, MbbeEmbedder())
        engine.submit(request(1, seed=1))
        engine.release(1)
        assert dict(engine.ledger.state.used_links()) == {}
        assert dict(engine.ledger.state.used_vnfs()) == {}
        assert engine.active_count() == 0

    def test_duplicate_id_rejected(self, online_net):
        engine = EmbeddingEngine(online_net, MbbeEmbedder())
        engine.submit(request(1, seed=1))
        with pytest.raises(ConfigurationError):
            engine.submit(request(1, seed=2))

    def test_unknown_release_rejected(self, online_net):
        engine = EmbeddingEngine(online_net, MbbeEmbedder())
        with pytest.raises(ConfigurationError):
            engine.release(99)

    def test_failed_request_holds_nothing(self, online_net):
        engine = EmbeddingEngine(online_net, MbbeEmbedder())
        bad = EmbeddingRequest(5, DagSfcBuilder().single(1).build(), 0, 999, FlowConfig())
        r = engine.submit(bad)
        assert not r.success
        assert engine.counters["dispatched"] == 1 and engine.counters["accepted"] == 0
        assert dict(engine.ledger.state.used_links()) == {}

    def test_saturation_then_departure_frees_capacity(self):
        # One instance of f(1), capacity for exactly one flow.
        g = build_line_graph(3, price=1.0, capacity=10.0)
        net = CloudNetwork(g)
        net.deploy(1, 1, price=5.0, capacity=1.0)
        dag = DagSfcBuilder().single(1).build()
        engine = EmbeddingEngine(net, MinvEmbedder())
        a = engine.submit(EmbeddingRequest(1, dag, 0, 2, FlowConfig(rate=1.0)))
        assert a.success
        b = engine.submit(EmbeddingRequest(2, dag, 0, 2, FlowConfig(rate=1.0)))
        assert not b.success  # instance saturated
        engine.release(1)
        c = engine.submit(EmbeddingRequest(3, dag, 0, 2, FlowConfig(rate=1.0)))
        assert c.success  # capacity came back
        assert engine.stats()["acceptance_ratio"] == pytest.approx(2 / 3)

    def test_costs_rise_as_cheap_capacity_fills(self, online_net):
        """Later arrivals see a poorer residual network: cost is monotone-ish."""
        engine = EmbeddingEngine(online_net, MbbeEmbedder())
        costs = []
        for i in range(4):
            r = engine.submit(request(i, seed=100 + i, size=3))
            if r.success:
                costs.append(r.total_cost)
        assert len(costs) >= 2
        # Not strictly monotone (different SFCs), but the last accepted
        # request must not be cheaper than the cheapest first one by much.
        assert max(costs) >= min(costs)


class TestMbbeSteiner:
    def test_never_worse_than_mbbe_on_fixed_instances(self):
        from repro.solvers import MbbeSteinerEmbedder

        cfg = NetworkConfig(size=50, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.15)
        net = generate_network(cfg, rng=19)
        for seed in range(4):
            dag = generate_dag_sfc(SfcConfig(size=5), n_vnf_types=6, rng=seed)
            m = MbbeEmbedder().embed(net, dag, 0, 49, FlowConfig())
            s = MbbeSteinerEmbedder().embed(net, dag, 0, 49, FlowConfig())
            assert m.success and s.success
            assert s.total_cost <= m.total_cost + 1e-6

    def test_registered(self):
        from repro.solvers import available_solvers, make_solver

        assert "MBBE-S" in available_solvers()
        assert make_solver("mbbe-s").name == "MBBE-S"
