"""Tests for residual-capacity tracking (the real-time network graph)."""

import pytest

from repro.exceptions import CapacityError, ConfigurationError, LinkNotFoundError
from repro.network.cloud import CloudNetwork
from repro.network.reservations import Reservation
from repro.network.state import ResidualState

from .conftest import build_line_graph


@pytest.fixture
def small_cloud():
    g = build_line_graph(4, price=1.0, capacity=2.0)
    net = CloudNetwork(g)
    net.deploy(1, 1, price=10.0, capacity=3.0)
    net.deploy(2, 2, price=12.0, capacity=1.0)
    return net


class TestLinkReservations:
    def test_reserve_and_residual(self, small_cloud):
        st = ResidualState(small_cloud)
        assert st.link_residual(0, 1) == pytest.approx(2.0)
        st.reserve_link(0, 1, 1.5)
        assert st.link_residual(0, 1) == pytest.approx(0.5)
        assert st.link_used(1, 0) == pytest.approx(1.5)  # symmetric

    def test_overflow_raises(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 2.0)
        with pytest.raises(CapacityError):
            st.reserve_link(0, 1, 0.5)

    def test_link_admits(self, small_cloud):
        st = ResidualState(small_cloud)
        link = small_cloud.graph.link(0, 1)
        assert st.link_admits(link, 2.0)
        st.reserve_link(0, 1, 1.0)
        assert st.link_admits(link, 1.0)
        assert not st.link_admits(link, 1.1)


class TestVnfReservations:
    def test_reserve_and_residual(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_vnf(1, 1, 2.0)
        assert st.vnf_residual(1, 1) == pytest.approx(1.0)

    def test_overflow_raises(self, small_cloud):
        st = ResidualState(small_cloud)
        with pytest.raises(CapacityError):
            st.reserve_vnf(2, 2, 1.5)

    def test_missing_instance(self, small_cloud):
        st = ResidualState(small_cloud)
        with pytest.raises(ConfigurationError):
            st.reserve_vnf(0, 1, 1.0)

    def test_vnf_admits(self, small_cloud):
        st = ResidualState(small_cloud)
        assert st.vnf_admits(1, 1, 3.0)
        assert not st.vnf_admits(1, 1, 3.1)
        assert not st.vnf_admits(0, 1, 0.1)  # not deployed


class TestTransactions:
    def test_claim_naming_a_missing_link_reserves_nothing(self, small_cloud):
        st = ResidualState(small_cloud)
        doomed = Reservation(
            vnf={(1, 1): 1.0}, links={(0, 1): 1.0, (0, 3): 1.0}, cost=1.0
        )
        with pytest.raises(LinkNotFoundError):
            doomed.claim(st)
        assert dict(st.used_links()) == {}
        assert dict(st.used_vnfs()) == {}

    def test_claim_naming_a_missing_instance_reserves_nothing(self, small_cloud):
        st = ResidualState(small_cloud)
        doomed = Reservation(vnf={(1, 1): 1.0, (0, 1): 1.0}, links={(0, 1): 1.0}, cost=1.0)
        with pytest.raises(ConfigurationError):
            doomed.claim(st)
        assert dict(st.used_links()) == {}
        assert dict(st.used_vnfs()) == {}

    def test_claim_that_overflows_reserves_nothing(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(1, 2, 1.5)
        doomed = Reservation(vnf={(1, 1): 1.0}, links={(0, 1): 1.0, (1, 2): 1.0}, cost=1.0)
        with pytest.raises(CapacityError):
            doomed.claim(st)
        assert dict(st.used_links()) == {(1, 2): 1.5}
        assert dict(st.used_vnfs()) == {}

    def test_snapshot_independent(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 1.0)
        snap = st.snapshot()
        st.reserve_link(0, 1, 1.0)
        assert snap.link_used(0, 1) == pytest.approx(1.0)
        assert st.link_used(0, 1) == pytest.approx(2.0)


class TestFilters:
    def test_link_filter_for_search(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(1, 2, 2.0)  # saturate middle link
        f = st.link_filter(rate=1.0)
        assert f(small_cloud.graph.link(0, 1))
        assert not f(small_cloud.graph.link(1, 2))

    def test_used_iterators(self, small_cloud):
        st = ResidualState(small_cloud)
        st.reserve_link(0, 1, 1.0)
        st.reserve_vnf(1, 1, 1.0)
        assert dict(st.used_links()) == {(0, 1): 1.0}
        assert dict(st.used_vnfs()) == {(1, 1): 1.0}
