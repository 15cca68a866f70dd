"""Tests for the NFV substrate: catalog, actions, parallelism, instances, pricing."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nfv.actions import Action, ActionProfile, PacketField
from repro.nfv.instances import DeploymentMap, VnfInstance
from repro.nfv.parallelism import (
    ParallelismAnalyzer,
    ParallelismClass,
    can_parallelize,
    classify,
)
from repro.nfv.pricing import UniformFluctuationPricer, price_bounds
from repro.nfv.vnf import VnfCatalog, VnfDescriptor, standard_catalog
from repro.types import DUMMY_VNF, MERGER_VNF


class TestActionProfile:
    def test_write_read_conflict(self):
        nat = ActionProfile.of(writes=(PacketField.SRC_IP,))
        monitor = ActionProfile.of(reads=(PacketField.SRC_IP,))
        assert nat.conflicts_with(monitor)
        assert monitor.conflicts_with(nat)  # symmetric

    def test_write_write_conflict(self):
        a = ActionProfile.of(writes=(PacketField.TOS,))
        b = ActionProfile.of(writes=(PacketField.TOS,))
        assert a.conflicts_with(b)

    def test_disjoint_no_conflict(self):
        a = ActionProfile.of(reads=(PacketField.SRC_IP,))
        b = ActionProfile.of(reads=(PacketField.PAYLOAD,))
        assert not a.conflicts_with(b)

    def test_read_read_same_field_ok(self):
        a = ActionProfile.of(reads=(PacketField.SRC_IP,))
        b = ActionProfile.of(reads=(PacketField.SRC_IP,))
        assert not a.conflicts_with(b)

    def test_may_drop(self):
        fw = ActionProfile.of(actions=(Action.DROP,))
        assert fw.may_drop
        assert not fw.is_read_only

    def test_read_only(self):
        mon = ActionProfile.of(reads=(PacketField.SRC_IP,))
        assert mon.is_read_only


class TestClassify:
    def test_conflicting_pair_sequential(self):
        nat = ActionProfile.of(writes=(PacketField.SRC_IP,))
        fw = ActionProfile.of(reads=(PacketField.SRC_IP,), actions=(Action.DROP,))
        assert classify(nat, fw) is ParallelismClass.SEQUENTIAL

    def test_dropper_parallel_with_merge_logic(self):
        fw = ActionProfile.of(reads=(PacketField.DST_IP,), actions=(Action.DROP,))
        mon = ActionProfile.of(reads=(PacketField.SRC_IP,))
        assert classify(fw, mon) is ParallelismClass.PARALLEL_WITH_MERGE_LOGIC

    def test_readers_parallel_free(self):
        a = ActionProfile.of(reads=(PacketField.SRC_IP,))
        b = ActionProfile.of(reads=(PacketField.PAYLOAD,))
        assert classify(a, b) is ParallelismClass.PARALLEL_FREE


class TestCatalog:
    def test_from_size(self):
        cat = VnfCatalog(n=5)
        assert len(cat) == 5
        assert cat.regular_ids == (1, 2, 3, 4, 5)

    def test_sentinels_are_members(self):
        cat = VnfCatalog(n=2)
        assert DUMMY_VNF in cat
        assert MERGER_VNF in cat
        assert 99 not in cat

    def test_rejects_reserved_id(self):
        with pytest.raises(ConfigurationError):
            VnfCatalog({0: VnfDescriptor(type_id=0, name="bad")})

    def test_rejects_mismatched_key(self):
        with pytest.raises(ConfigurationError):
            VnfCatalog({2: VnfDescriptor(type_id=3, name="bad")})

    def test_needs_n_or_descriptors(self):
        with pytest.raises(ConfigurationError):
            VnfCatalog()

    def test_standard_catalog_profiles(self):
        cat = standard_catalog()
        assert len(cat) == 12
        assert all(cat.profile(i) is not None for i in cat)
        assert cat.name(1) == "firewall"
        assert cat.name(MERGER_VNF) == "merger"

    def test_standard_catalog_truncation(self):
        assert len(standard_catalog(4)) == 4
        with pytest.raises(ConfigurationError):
            standard_catalog(99)


class TestAnalyzer:
    def test_nat_and_lb_sequential(self):
        # NAT writes src ip/port; LB reads them -> conflict.
        cat = standard_catalog()
        an = ParallelismAnalyzer(cat)
        nat = next(i for i in cat if cat.name(i) == "nat")
        lb = next(i for i in cat if cat.name(i) == "load_balancer")
        assert not an.parallelizable(nat, lb)

    def test_firewall_and_dpi_parallel_with_merge(self):
        cat = standard_catalog()
        fw = next(i for i in cat if cat.name(i) == "firewall")
        dpi = next(i for i in cat if cat.name(i) == "dpi")
        assert ParallelismAnalyzer(cat, allow_merge_logic=True).parallelizable(fw, dpi)
        assert not ParallelismAnalyzer(cat, allow_merge_logic=False).parallelizable(fw, dpi)

    def test_unknown_profile_policy(self):
        cat = VnfCatalog(n=3)  # no profiles
        assert not ParallelismAnalyzer(cat).parallelizable(1, 2)
        assert ParallelismAnalyzer(cat, unknown_is_sequential=False).parallelizable(1, 2)

    def test_group_check(self):
        cat = standard_catalog()
        an = ParallelismAnalyzer(cat)
        fw = next(i for i in cat if cat.name(i) == "firewall")
        ids_mon = next(i for i in cat if cat.name(i) == "monitor")
        nat = next(i for i in cat if cat.name(i) == "nat")
        assert an.all_parallelizable((fw,), ids_mon)
        assert not an.all_parallelizable((fw, ids_mon), nat)

    def test_parallel_fraction_in_range(self):
        an = ParallelismAnalyzer(standard_catalog())
        frac = an.parallel_fraction()
        assert 0.0 < frac < 1.0

    def test_can_parallelize_shorthand(self):
        cat = standard_catalog()
        fw = 1  # firewall: read-only + DROP -> needs merge logic vs itself
        assert can_parallelize(cat, fw, fw) is True
        assert can_parallelize(cat, fw, fw, allow_merge_logic=False) is False


class TestInstances:
    def test_instance_validation(self):
        with pytest.raises(ConfigurationError):
            VnfInstance(node=0, vnf_type=1, price=-1.0, capacity=1.0)
        with pytest.raises(ConfigurationError):
            VnfInstance(node=0, vnf_type=1, price=1.0, capacity=0.0)

    def test_deployment_map_roundtrip(self):
        dm = DeploymentMap()
        dm.add(VnfInstance(node=0, vnf_type=1, price=5.0, capacity=2.0))
        dm.add(VnfInstance(node=0, vnf_type=2, price=6.0, capacity=2.0))
        dm.add(VnfInstance(node=1, vnf_type=1, price=7.0, capacity=2.0))
        assert dm.types_at(0) == {1, 2}
        assert dm.nodes_with(1) == {0, 1}
        assert dm.instance(1, 1).price == 7.0
        assert dm.instance(1, 2) is None
        assert dm.count() == 3
        assert dm.deployed_types == {1, 2}
        assert [i.node for i in dm.instances_of(1)] == [0, 1]

    def test_duplicate_rejected(self):
        dm = DeploymentMap()
        dm.add(VnfInstance(node=0, vnf_type=1, price=5.0, capacity=2.0))
        with pytest.raises(ConfigurationError):
            dm.add(VnfInstance(node=0, vnf_type=1, price=9.0, capacity=2.0))

    def test_resize_instance_keeps_every_order(self):
        dm = DeploymentMap.from_mapping({0: {2: (5.0, 2.0), 1: (6.0, 3.0)}, 1: {1: (7.0, 1.0)}})
        resized = dm.resize_instance(0, 2, 0.5)
        assert (resized.price, resized.capacity) == (5.0, 0.5)
        assert [t for t, _ in dm.instances_at(0)] == [2, 1]
        assert dm.instance(0, 2) is resized
        assert dm.nodes_with(1) == {0, 1}
        with pytest.raises(ConfigurationError):
            dm.resize_instance(1, 2, 1.0)

    def test_from_mapping(self):
        dm = DeploymentMap.from_mapping({0: {1: (5.0, 2.0)}, 1: {2: (6.0, 3.0)}})
        assert dm.instance(0, 1).capacity == 2.0
        assert dm.deployment_ratio(1, 2) == 0.5


class TestPricing:
    def test_bounds(self):
        assert price_bounds(100.0, 0.05) == (95.0, 105.0)
        assert price_bounds(100.0, 0.0) == (100.0, 100.0)

    def test_bounds_validation(self):
        with pytest.raises(ConfigurationError):
            price_bounds(-1.0, 0.1)
        with pytest.raises(ConfigurationError):
            price_bounds(1.0, 1.5)

    def test_draws_within_support(self):
        p = UniformFluctuationPricer(mean=50.0, fluctuation_ratio=0.2, rng=1)
        xs = p.draw_many(1000)
        assert xs.min() >= 40.0 and xs.max() <= 60.0
        assert np.mean(xs) == pytest.approx(50.0, rel=0.02)

    def test_single_draw(self):
        p = UniformFluctuationPricer(mean=50.0, fluctuation_ratio=0.0, rng=1)
        assert p.draw() == pytest.approx(50.0)

    def test_observed_fluctuation(self):
        p = UniformFluctuationPricer(mean=100.0, fluctuation_ratio=0.5, rng=2)
        xs = p.draw_many(5000)
        assert p.observed_fluctuation(xs) == pytest.approx(0.5, abs=0.02)
