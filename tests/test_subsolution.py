"""Tests for sub-solutions, the sub-solution tree, and shared evaluation."""

import pytest

from repro.config import FlowConfig
from repro.network.cloud import CloudNetwork
from repro.network.paths import Path
from repro.sfc.builder import DagSfcBuilder
from repro.sfc.dag import Layer
from repro.solvers.common import (
    coverage_stop,
    evaluate_layer_candidate,
    evaluate_tail,
    vnf_admit,
)
from repro.solvers.subsolution import SubSolution, SubSolutionTree
from repro.types import MERGER_VNF, Position

from .conftest import build_line_graph


@pytest.fixture
def cloud():
    g = build_line_graph(5, price=1.0, capacity=2.0)
    net = CloudNetwork(g)
    net.deploy(1, 1, price=10.0, capacity=2.0)
    net.deploy(2, 2, price=20.0, capacity=2.0)
    net.deploy(3, 3, price=30.0, capacity=2.0)
    net.deploy(3, MERGER_VNF, price=5.0, capacity=2.0)
    return net


class TestSubSolutionChain:
    def test_root(self):
        root = SubSolution.root(7)
        assert root.layer == 0 and root.end_node == 7
        assert root.cum_cost == 0.0
        assert list(root.chain()) == [root]

    def test_tree_insert_and_query(self, cloud):
        tree = SubSolutionTree(0)
        child = SubSolution(
            layer=1,
            parent=tree.root,
            end_node=1,
            placements={Position(1, 1): 1},
            inter_paths={Position(1, 1): Path((0, 1))},
            inner_paths={},
            layer_cost=11.0,
            cum_cost=11.0,
            vnf_counts={(1, 1): 1},
            link_counts={(0, 1): 1},
        )
        tree.insert(tree.root, child)
        assert tree.layer_nodes(1) == [child]
        assert tree.layer_nodes(0) == [tree.root]
        assert tree.size() == 2
        assert tree.depth() == 1
        assert tree.cheapest(1) is child
        assert tree.cheapest(2) is None

    def test_insert_validates_lineage(self):
        tree = SubSolutionTree(0)
        stranger = SubSolution.root(5)
        with pytest.raises(ValueError):
            tree.insert(tree.root, stranger)


class TestEvaluateLayerCandidate:
    def test_single_vnf_layer(self, cloud):
        parent = SubSolution.root(0)
        layer = Layer((1,))
        ss = evaluate_layer_candidate(
            cloud,
            FlowConfig(),
            parent,
            1,
            layer,
            assignment={1: 1},
            inter_paths={1: Path((0, 1))},
            inner_paths={},
        )
        assert ss is not None
        assert ss.end_node == 1
        assert ss.layer_cost == pytest.approx(10.0 + 1.0)
        assert ss.vnf_counts == {(1, 1): 1}
        assert ss.link_counts == {(0, 1): 1}

    def test_parallel_layer_multicast_union(self, cloud):
        parent = SubSolution.root(1)
        layer = Layer((2, 3))
        ss = evaluate_layer_candidate(
            cloud,
            FlowConfig(),
            parent,
            1,
            layer,
            assignment={1: 2, 2: 3, 3: 3},
            inter_paths={1: Path((1, 2)), 2: Path((1, 2, 3))},
            inner_paths={1: Path((2, 3)), 2: Path.trivial(3)},
        )
        assert ss is not None
        # Links: union{1-2, 2-3} once + inner 2-3 once = 1-2:1, 2-3:2.
        assert ss.link_counts == {(1, 2): 1, (2, 3): 2}
        assert ss.layer_cost == pytest.approx((20 + 30 + 5) + (1 + 2))
        assert ss.end_node == 3

    def test_capacity_rejection_link(self, cloud):
        parent = SubSolution.root(1)
        layer = Layer((2, 3))
        # Rate 1, capacity 2: link 2-3 used twice is fine; rate 1.5 overflows.
        ss = evaluate_layer_candidate(
            cloud,
            FlowConfig(rate=1.5),
            parent,
            1,
            layer,
            assignment={1: 2, 2: 3, 3: 3},
            inter_paths={1: Path((1, 2)), 2: Path((1, 2, 3))},
            inner_paths={1: Path((2, 3)), 2: Path.trivial(3)},
        )
        assert ss is None

    def test_capacity_rejection_vnf(self, cloud):
        parent = SubSolution.root(0)
        layer = Layer((1,))
        ss1 = evaluate_layer_candidate(
            cloud, FlowConfig(rate=2.0), parent, 1, layer,
            assignment={1: 1}, inter_paths={1: Path((0, 1))}, inner_paths={},
        )
        assert ss1 is not None  # exactly at capacity
        # A second use of the same instance would need 4.0 > 2.0.
        layer2 = Layer((1,))
        ss2 = evaluate_layer_candidate(
            cloud, FlowConfig(rate=2.0), ss1, 2, layer2,
            assignment={1: 1}, inter_paths={1: Path.trivial(1)}, inner_paths={},
        )
        assert ss2 is None

    def test_endpoint_validation(self, cloud):
        parent = SubSolution.root(0)
        layer = Layer((1,))
        with pytest.raises(ValueError):
            evaluate_layer_candidate(
                cloud, FlowConfig(), parent, 1, layer,
                assignment={1: 1}, inter_paths={1: Path((1, 0))}, inner_paths={},
            )

    def test_wrong_width_assignment(self, cloud):
        parent = SubSolution.root(0)
        with pytest.raises(ValueError):
            evaluate_layer_candidate(
                cloud, FlowConfig(), parent, 1, Layer((2, 3)),
                assignment={1: 2}, inter_paths={}, inner_paths={},
            )


class TestEvaluateTail:
    def test_tail_cost_and_end(self, cloud):
        parent = SubSolution.root(3)
        leaf = evaluate_tail(cloud, FlowConfig(), parent, 2, Path((3, 4)))
        assert leaf is not None
        assert leaf.end_node == 4
        assert leaf.layer_cost == pytest.approx(1.0)
        assert Position(2, 1) in leaf.inter_paths

    def test_tail_capacity_rejected(self, cloud):
        parent = SubSolution.root(3)
        assert evaluate_tail(cloud, FlowConfig(rate=5.0), parent, 2, Path((3, 4))) is None

    def test_to_embedding_roundtrip(self, cloud):
        dag = DagSfcBuilder().single(1).build()
        root = SubSolution.root(0)
        layer = dag.layer(1)
        ss = evaluate_layer_candidate(
            cloud, FlowConfig(), root, 1, layer,
            assignment={1: 1}, inter_paths={1: Path((0, 1))}, inner_paths={},
        )
        leaf = evaluate_tail(cloud, FlowConfig(), ss, 2, Path((1, 2, 3, 4)))
        emb = leaf.to_embedding(dag, 0, 4)
        assert emb.placements == {Position(1, 1): 1}
        assert emb.inter_paths[Position(2, 1)].nodes == (1, 2, 3, 4)


class TestPredicates:
    def test_vnf_admit_respects_counts(self, cloud):
        admit = vnf_admit(cloud, {(1, 1): 2}, rate=1.0)
        assert not admit(1, 1)  # capacity 2, already 2 uses
        admit2 = vnf_admit(cloud, {(1, 1): 1}, rate=1.0)
        assert admit2(1, 1)
        assert not admit2(0, 1)  # not deployed

    def test_coverage_stop(self, cloud):
        admit = vnf_admit(cloud, {}, rate=1.0)
        stop = coverage_stop(cloud, (2, 3, MERGER_VNF), admit)
        assert not stop(frozenset({1, 2}))
        assert stop(frozenset({2, 3}))
