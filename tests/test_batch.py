"""Tests for offline batch embedding and its ordering strategies."""

import numpy as np
import pytest

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.engine import EmbeddingRequest
from repro.exceptions import ConfigurationError
from repro.network.generator import generate_network
from repro.sfc.generator import generate_dag_sfc
from repro.sim.batch import ORDERINGS, embed_batch
from repro.solvers import MbbeEmbedder


@pytest.fixture(scope="module")
def batch_setup():
    cfg = NetworkConfig(
        size=40, connectivity=4.5, n_vnf_types=8, deploy_ratio=0.4,
        vnf_capacity=3.0, link_capacity=4.0,
    )
    net = generate_network(cfg, rng=31)
    rng = np.random.default_rng(32)
    requests = []
    for i in range(12):
        size = int(rng.integers(2, 6))
        dag = generate_dag_sfc(SfcConfig(size=size), n_vnf_types=8, rng=rng)
        src, dst = (int(v) for v in rng.choice(40, size=2, replace=False))
        requests.append(EmbeddingRequest(i, dag, src, dst, FlowConfig(rate=1.0)))
    return net, requests


class TestOrderings:
    def test_all_orderings_are_permutations(self, batch_setup):
        net, requests = batch_setup
        expected = {r.request_id for r in requests}
        for name, fn in ORDERINGS.items():
            order = fn(net, requests)
            assert sorted(order) == list(range(len(requests))), name

    def test_smallest_first_sorted(self, batch_setup):
        net, requests = batch_setup
        order = ORDERINGS["smallest_first"](net, requests)
        sizes = [requests[i].dag.num_positions for i in order]
        assert sizes == sorted(sizes)

    def test_largest_first_reverse(self, batch_setup):
        net, requests = batch_setup
        order = ORDERINGS["largest_first"](net, requests)
        sizes = [requests[i].dag.num_positions for i in order]
        assert sizes == sorted(sizes, reverse=True)


class TestEmbedBatch:
    def test_partition_and_cost(self, batch_setup):
        net, requests = batch_setup
        out = embed_batch(net, requests, MbbeEmbedder(), ordering="fifo")
        all_ids = {r.request_id for r in requests}
        assert set(out.accepted_ids) | set(out.rejected_ids) == all_ids
        assert not set(out.accepted_ids) & set(out.rejected_ids)
        assert out.total_cost > 0
        assert 0 < out.acceptance_ratio <= 1.0

    def test_deterministic(self, batch_setup):
        net, requests = batch_setup
        a = embed_batch(net, requests, MbbeEmbedder(), ordering="fifo")
        b = embed_batch(net, requests, MbbeEmbedder(), ordering="fifo")
        assert a.accepted_ids == b.accepted_ids
        assert a.total_cost == pytest.approx(b.total_cost)

    def test_network_left_untouched(self, batch_setup):
        """Batch embedding must not mutate the input network's capacities."""
        net, requests = batch_setup
        embed_batch(net, requests, MbbeEmbedder())
        out2 = embed_batch(net, requests, MbbeEmbedder())
        assert out2.acceptance_ratio > 0  # same fresh capacity both times

    def test_orderings_change_outcome_under_pressure(self, batch_setup):
        net, requests = batch_setup
        outcomes = {
            name: embed_batch(net, requests, MbbeEmbedder(), ordering=name)
            for name in ORDERINGS
        }
        # With tight capacity, at least two orderings should differ in
        # acceptance set or cost (otherwise the test setup is too slack).
        signatures = {
            (o.accepted_ids, round(o.total_cost, 6)) for o in outcomes.values()
        }
        assert len(signatures) >= 2

    def test_unknown_ordering(self, batch_setup):
        net, requests = batch_setup
        with pytest.raises(ConfigurationError):
            embed_batch(net, requests, MbbeEmbedder(), ordering="magic")

    def test_duplicate_ids_rejected(self, batch_setup):
        net, requests = batch_setup
        dupes = [requests[0], requests[0]]
        with pytest.raises(ConfigurationError):
            embed_batch(net, dupes, MbbeEmbedder())

    def test_empty_batch(self, batch_setup):
        net, _ = batch_setup
        out = embed_batch(net, [], MbbeEmbedder())
        assert out.acceptance_ratio == 1.0
        assert out.total_cost == 0.0
