"""Unit tests for the network graph substrate."""

import pytest

from repro.exceptions import ConfigurationError, LinkNotFoundError, NodeNotFoundError
from repro.network.graph import Graph, Link

from .conftest import build_line_graph, build_square_graph


class TestLink:
    def test_rejects_self_loop(self):
        with pytest.raises(ConfigurationError):
            Link(u=1, v=1, price=1.0, capacity=1.0)

    def test_rejects_negative_price(self):
        with pytest.raises(ConfigurationError):
            Link(u=0, v=1, price=-1.0, capacity=1.0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            Link(u=0, v=1, price=1.0, capacity=0.0)

    def test_key_canonical(self):
        link = Link(u=2, v=7, price=1.0, capacity=1.0)
        assert link.key == (2, 7)

    def test_other_endpoint(self):
        link = Link(u=2, v=7, price=1.0, capacity=1.0)
        assert link.other(2) == 7
        assert link.other(7) == 2
        with pytest.raises(NodeNotFoundError):
            link.other(3)


class TestGraphConstruction:
    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(0)
        g.add_node(0)
        assert g.num_nodes == 1

    def test_negative_node_rejected(self):
        g = Graph()
        with pytest.raises(ConfigurationError):
            g.add_node(-1)

    def test_add_link_creates_endpoints(self):
        g = Graph()
        g.add_link(3, 5, price=1.0, capacity=1.0)
        assert g.has_node(3) and g.has_node(5)
        assert g.num_links == 1

    def test_duplicate_link_rejected_either_direction(self):
        g = Graph()
        g.add_link(0, 1, price=1.0, capacity=1.0)
        with pytest.raises(ConfigurationError):
            g.add_link(1, 0, price=2.0, capacity=1.0)

    def test_remove_link(self):
        g = build_square_graph()
        g.remove_link(0, 1)
        assert not g.has_link(0, 1)
        assert g.num_links == 4
        with pytest.raises(LinkNotFoundError):
            g.remove_link(0, 1)

    def test_resize_link_keeps_every_order(self):
        g = build_square_graph()
        links_before = [link.key for link in g.links()]
        adjacency_before = {n: list(g.neighbors(n)) for n in g.nodes()}
        resized = g.resize_link((0, 1), 0.25)
        assert (resized.key, resized.capacity) == ((0, 1), 0.25)
        assert g.link(0, 1) is resized
        assert dict(g.adjacency(0))[1] is resized and dict(g.adjacency(1))[0] is resized
        assert [link.key for link in g.links()] == links_before
        assert {n: list(g.neighbors(n)) for n in g.nodes()} == adjacency_before
        with pytest.raises(LinkNotFoundError):
            g.resize_link((0, 9), 1.0)


class TestGraphQueries:
    def test_link_symmetric_lookup(self):
        g = build_line_graph(3)
        assert g.link(0, 1) is g.link(1, 0)

    def test_missing_link_raises(self):
        g = build_line_graph(3)
        with pytest.raises(LinkNotFoundError):
            g.link(0, 2)

    def test_neighbors(self):
        g = build_line_graph(3)
        assert set(g.neighbors(1)) == {0, 2}
        with pytest.raises(NodeNotFoundError):
            g.neighbors(99)

    def test_degree_and_average(self):
        g = build_square_graph()
        assert g.degree(0) == 3  # two ring links + diagonal
        assert g.average_degree() == pytest.approx(2 * 5 / 4)

    def test_incident_links(self):
        g = build_line_graph(3)
        assert {l.key for l in g.incident(1)} == {(0, 1), (1, 2)}

    def test_links_iterates_each_once(self):
        g = build_square_graph()
        keys = [l.key for l in g.links()]
        assert len(keys) == len(set(keys)) == 5


class TestGraphAlgorithms:
    def test_connected_line(self):
        assert build_line_graph(10).is_connected()

    def test_disconnected_after_cut(self):
        g = build_line_graph(4)
        g.remove_link(1, 2)
        assert not g.is_connected()

    def test_empty_graph_connected(self):
        assert Graph().is_connected()

    def test_isolated_node_disconnects(self):
        g = build_line_graph(3)
        g.add_node(50)
        assert not g.is_connected()

    def test_copy_is_independent(self):
        g = build_line_graph(3)
        h = g.copy()
        h.remove_link(0, 1)
        assert g.has_link(0, 1)
        assert not h.has_link(0, 1)

    def test_total_link_price(self):
        g = build_square_graph(price=1.0)
        assert g.total_link_price() == pytest.approx(4 * 1.0 + 2.0)
