"""Property tests for the extension modules: serialization, routing,
batch orderings, DOT output, and the cost attribution identity."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.embedding.costing import compute_cost
from repro.embedding.feasibility import verify_embedding
from repro.embedding.inspect import attribute_cost
from repro.network.generator import generate_network
from repro.serialize import (
    dag_from_dict,
    dag_to_dict,
    embedding_from_dict,
    embedding_to_dict,
    network_from_dict,
    network_to_dict,
)
from repro.sfc.generator import generate_dag_sfc, generate_random_structure_dag
from repro.solvers import MbbeEmbedder, MinvEmbedder
from repro.viz.dot import dag_to_dot, embedding_to_dot

MODERATE = settings(
    max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

nets = st.builds(
    lambda seed, size: generate_network(
        NetworkConfig(size=size, connectivity=3.5, n_vnf_types=6, deploy_ratio=0.6),
        rng=seed,
    ),
    seed=st.integers(0, 3000),
    size=st.integers(10, 30),
)


class TestSerializationProperties:
    @given(net=nets)
    @MODERATE
    def test_network_roundtrip_is_identity(self, net):
        clone = network_from_dict(network_to_dict(net))
        assert set(clone.graph.nodes()) == set(net.graph.nodes())
        for link in net.graph.links():
            c = clone.graph.link(link.u, link.v)
            assert c.price == link.price and c.capacity == link.capacity
        for inst in net.deployments.all_instances():
            c = clone.instance(inst.node, inst.vnf_type)
            assert c.price == inst.price and c.capacity == inst.capacity

    @given(size=st.integers(1, 10), seed=st.integers(0, 3000))
    @MODERATE
    def test_dag_roundtrip_is_identity(self, size, seed):
        dag = generate_random_structure_dag(size, 12, rng=seed)
        assert dag_from_dict(dag_to_dict(dag)) == dag

    @given(net=nets, seed=st.integers(0, 3000))
    @MODERATE
    def test_embedding_roundtrip_preserves_cost(self, net, seed):
        dag = generate_dag_sfc(SfcConfig(size=3), n_vnf_types=6, rng=seed)
        r = MinvEmbedder().embed(net, dag, 0, net.num_nodes - 1, FlowConfig(), rng=1)
        if not r.success:
            return
        clone = embedding_from_dict(embedding_to_dict(r.embedding))
        verify_embedding(net, clone, FlowConfig())
        assert compute_cost(net, clone, FlowConfig()).total == pytest.approx(
            r.total_cost
        )


class TestAttributionProperties:
    @given(net=nets, seed=st.integers(0, 3000))
    @MODERATE
    def test_layer_attribution_sums_to_total(self, net, seed):
        dag = generate_dag_sfc(SfcConfig(size=4), n_vnf_types=6, rng=seed)
        r = MbbeEmbedder().embed(net, dag, 0, net.num_nodes - 1, FlowConfig())
        if not r.success:
            return
        attr = attribute_cost(net, r.embedding, FlowConfig())
        assert sum(lc.total for lc in attr.layers) == pytest.approx(attr.total)
        assert attr.total == pytest.approx(r.total_cost)
        assert all(lc.total >= -1e-9 for lc in attr.layers)


class TestDotProperties:
    @given(size=st.integers(1, 9), seed=st.integers(0, 3000))
    @MODERATE
    def test_dag_dot_always_balanced(self, size, seed):
        dag = generate_random_structure_dag(size, 12, rng=seed)
        dot = dag_to_dot(dag)
        assert dot.count("{") == dot.count("}")
        assert dot.count("subgraph") == dag.omega

    @given(net=nets, seed=st.integers(0, 3000))
    @MODERATE
    def test_embedding_dot_arrow_counts(self, net, seed):
        dag = generate_dag_sfc(SfcConfig(size=3), n_vnf_types=6, rng=seed)
        r = MbbeEmbedder().embed(net, dag, 0, net.num_nodes - 1, FlowConfig())
        if not r.success:
            return
        dot = embedding_to_dot(net, r.embedding)
        assert dot.count("#C23B21") == sum(
            p.length for p in r.embedding.inter_paths.values()
        )
        assert dot.count("{") == dot.count("}")


class TestOnlineConservation:
    @given(net=nets, seed=st.integers(0, 3000))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_submit_release_restores_state(self, net, seed):
        """Any accepted request, once released, leaves zero residue."""
        from repro.engine import EmbeddingEngine, EmbeddingRequest

        dag = generate_dag_sfc(SfcConfig(size=3), n_vnf_types=6, rng=seed)
        engine = EmbeddingEngine(net, MbbeEmbedder())
        rng = np.random.default_rng(seed)
        src, dst = (int(v) for v in rng.choice(net.num_nodes, size=2, replace=False))
        r = engine.submit(EmbeddingRequest(1, dag, src, dst, FlowConfig()))
        if not r.success:
            return
        engine.release(1)
        assert dict(engine.ledger.state.used_links()) == {}
        assert dict(engine.ledger.state.used_vnfs()) == {}
