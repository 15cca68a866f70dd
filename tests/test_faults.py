"""Unit tests for the fault-injection subsystem (`repro.faults`).

Covers the fault model (scripts, state, degraded views), the per-request
impact analysis, and every rung of the reroute → re-embed → evict repair
ladder on small deterministic substrates.
"""

import pytest

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.engine import EmbeddingEngine, EmbeddingRequest
from repro.exceptions import ConfigurationError
from repro.faults.impact import assess_impact
from repro.faults.model import (
    FaultAction,
    FaultEvent,
    FaultScript,
    FaultSpec,
    FaultState,
    FaultTarget,
    generate_fault_script,
    script_from_dict,
    script_to_dict,
)
from repro.faults.repair import RepairAction
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.network.state import ResidualState
from repro.sfc.builder import DagSfcBuilder
from repro.sim.trace import ArrivalTrace, TraceEvent, generate_trace, replay
from repro.solvers import MbbeEmbedder

from .conftest import build_line_graph, build_square_graph


def fail(target: FaultTarget, *, time: int = 0) -> FaultEvent:
    return FaultEvent(time=time, action=FaultAction.FAIL, target=target)


def recover(target: FaultTarget, *, time: int = 0) -> FaultEvent:
    return FaultEvent(time=time, action=FaultAction.RECOVER, target=target)


def single_vnf_request(rid: int, source: int, dest: int) -> EmbeddingRequest:
    dag = DagSfcBuilder().single(1).build()
    return EmbeddingRequest(rid, dag, source, dest, FlowConfig(rate=1.0))


class TestFaultModel:
    def test_script_generation_is_deterministic(self, small_network):
        spec = FaultSpec(horizon=50, node_mtbf=20.0, link_mtbf=15.0, instance_mtbf=25.0)
        a = generate_fault_script(spec, small_network, rng=11)
        b = generate_fault_script(spec, small_network, rng=11)
        assert a.events == b.events
        c = generate_fault_script(spec, small_network, rng=12)
        assert a.events != c.events

    def test_generated_scripts_return_to_pristine(self, small_network):
        # Every FAIL is eventually matched by a RECOVER (possibly past the
        # horizon), so replaying the full script ends with nothing dead.
        spec = FaultSpec(horizon=40, node_mtbf=10.0, link_mtbf=8.0, instance_mtbf=12.0)
        script = generate_fault_script(spec, small_network, rng=3)
        assert len(script) > 0
        state = FaultState()
        for event in script:
            state.apply(event)
        assert not state.any_dead

    def test_script_sorts_recoveries_before_failures(self):
        link = FaultTarget.link(0, 1)
        node = FaultTarget.node(2)
        script = FaultScript(
            events=(fail(link, time=5), recover(node, time=5), fail(node, time=3)),
            horizon=10,
        )
        assert [(e.time, e.action) for e in script] == [
            (3, FaultAction.FAIL),
            (5, FaultAction.RECOVER),
            (5, FaultAction.FAIL),
        ]

    def test_script_round_trip(self, small_network):
        spec = FaultSpec(horizon=30, node_mtbf=12.0, instance_mtbf=9.0)
        script = generate_fault_script(spec, small_network, rng=5)
        payload = script_to_dict(script)
        assert payload["format"] == "repro.dag-sfc"
        assert payload["kind"] == "fault-script"
        restored = script_from_dict(payload)
        assert restored.events == script.events
        assert restored.horizon == script.horizon

    def test_script_from_dict_validates_envelope(self):
        with pytest.raises(ConfigurationError, match="not a"):
            script_from_dict({"format": "something-else", "kind": "fault-script"})
        good = script_to_dict(FaultScript(events=(), horizon=1))
        good["version"] = 99
        with pytest.raises(ConfigurationError, match="version"):
            script_from_dict(good)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(horizon=0)
        with pytest.raises(ConfigurationError):
            FaultSpec(horizon=10, node_mtbf=-1.0)
        with pytest.raises(ConfigurationError):
            FaultSpec(horizon=10, node_mttr=0.5)

    def test_state_apply_reports_noops(self):
        state = FaultState()
        link = FaultTarget.link(1, 0)  # canonicalized to (0, 1)
        assert state.apply(fail(link)) is True
        assert state.apply(fail(link)) is False
        assert state.any_dead
        assert state.apply(recover(link)) is True
        assert state.apply(recover(link)) is False
        assert not state.any_dead

    def test_node_death_is_transitive(self):
        # A dead node implies its links and instances are down without
        # separate events — and recovery brings exactly them back.
        state = FaultState()
        state.apply(fail(FaultTarget.node(1)))
        assert not state.node_alive(1)
        assert not state.link_alive(0, 1)
        assert not state.instance_alive(1, 3)
        assert state.link_alive(2, 3)
        state.apply(recover(FaultTarget.node(1)))
        assert state.link_alive(0, 1)
        assert state.instance_alive(1, 3)

    def test_independent_link_death_survives_node_recovery(self):
        state = FaultState()
        state.apply(fail(FaultTarget.link(0, 1)))
        state.apply(fail(FaultTarget.node(0)))
        state.apply(recover(FaultTarget.node(0)))
        assert state.node_alive(0)
        assert not state.link_alive(0, 1)

    def test_degrade_network_removes_dead_elements_only(self):
        net = CloudNetwork(build_square_graph())
        net.deploy(1, 1, price=2.0, capacity=10.0)
        net.deploy(3, 1, price=2.0, capacity=10.0)
        state = FaultState()
        state.apply(fail(FaultTarget.link(0, 1)))
        state.apply(fail(FaultTarget.node(3)))
        state.apply(fail(FaultTarget.instance(1, 1)))
        view = ResidualState(net).to_network(faults=state)
        assert not view.graph.has_link(0, 1)
        assert not view.graph.has_node(3)
        assert not view.graph.has_link(2, 3)  # incident to the dead node
        assert view.graph.has_link(1, 2)
        assert not any(True for _ in view.deployments.all_instances())
        # The input network is untouched.
        assert net.graph.has_link(0, 1)
        assert net.graph.has_node(3)
        assert sum(1 for _ in net.deployments.all_instances()) == 2

    def test_no_faults_degrades_to_equal_network(self, small_network):
        view = ResidualState(small_network).to_network(faults=FaultState())
        assert sorted(view.graph.nodes()) == sorted(small_network.graph.nodes())
        assert sorted(l.key for l in view.graph.links()) == sorted(
            l.key for l in small_network.graph.links()
        )


class TestImpactAnalysis:
    @pytest.fixture
    def embedded(self):
        """A single-VNF embedding on the square: place at 1, path 0-1-2."""
        net = CloudNetwork(build_square_graph())
        net.deploy(1, 1, price=2.0, capacity=10.0)
        result = MbbeEmbedder().embed(
            net, DagSfcBuilder().single(1).build(), 0, 2, FlowConfig(rate=1.0), rng=0
        )
        assert result.success
        return result.embedding

    def test_intact_when_nothing_dead(self, embedded):
        impact = assess_impact(0, embedded, FaultState())
        assert not impact.affected
        assert impact.describe() == "intact"

    def test_broken_path_is_reroutable(self, embedded):
        state = FaultState()
        state.apply(fail(FaultTarget.link(1, 2)))
        impact = assess_impact(0, embedded, state)
        assert impact.affected
        assert impact.placements_intact
        assert impact.broken_inter or impact.broken_inner

    def test_dead_instance_forces_reembed(self, embedded):
        state = FaultState()
        state.apply(fail(FaultTarget.instance(1, 1)))
        impact = assess_impact(0, embedded, state)
        assert impact.affected
        assert impact.dead_placements
        assert not impact.placements_intact
        assert not impact.endpoints_dead

    def test_dead_endpoint_is_unrepairable(self, embedded):
        state = FaultState()
        state.apply(fail(FaultTarget.node(2)))
        impact = assess_impact(0, embedded, state)
        assert impact.endpoints_dead
        assert not impact.placements_intact


class TestRepairLadder:
    def make_square_engine(self, *, extra_instance: bool = False) -> EmbeddingEngine:
        """Square substrate, type 1 deployed at node 1 (and 3 if asked)."""
        net = CloudNetwork(build_square_graph())
        net.deploy(1, 1, price=2.0, capacity=10.0)
        if extra_instance:
            net.deploy(3, 1, price=8.0, capacity=10.0)
        return EmbeddingEngine(net, MbbeEmbedder())

    def test_link_failure_reroutes(self):
        engine = self.make_square_engine()
        assert engine.submit(single_vnf_request(0, 0, 2), rng=1).success
        outcomes = engine.apply_fault(fail(FaultTarget.link(1, 2)))
        assert [o.action for o in outcomes] == [RepairAction.REROUTED]
        assert outcomes[0].survived
        assert outcomes[0].cost_delta >= 0
        # The repaired request releases cleanly: capacity is conserved.
        engine.release(0)
        assert not any(True for _ in engine.ledger.state.used_links())
        assert not any(True for _ in engine.ledger.state.used_vnfs())

    def test_instance_failure_reembeds_onto_the_alternative(self):
        engine = self.make_square_engine(extra_instance=True)
        result = engine.submit(single_vnf_request(0, 0, 2), rng=1)
        assert result.success
        outcomes = engine.apply_fault(fail(FaultTarget.instance(1, 1)))
        assert [o.action for o in outcomes] == [RepairAction.RE_EMBEDDED]
        # The cheap instance died; the repair pays the expensive one.
        assert outcomes[0].new_cost > result.total_cost
        assert "re_embed" in outcomes[0].attempts
        engine.release(0)
        assert not any(True for _ in engine.ledger.state.used_links())
        assert not any(True for _ in engine.ledger.state.used_vnfs())

    def test_instance_failure_without_alternative_evicts(self):
        engine = self.make_square_engine()
        assert engine.submit(single_vnf_request(0, 0, 2), rng=1).success
        outcomes = engine.apply_fault(fail(FaultTarget.instance(1, 1)))
        assert [o.action for o in outcomes] == [RepairAction.EVICTED]
        assert not outcomes[0].survived
        assert outcomes[0].new_cost == 0.0
        # Eviction already returned everything; the id is gone.
        assert list(engine.active_ids()) == []
        assert not any(True for _ in engine.ledger.state.used_links())
        assert not any(True for _ in engine.ledger.state.used_vnfs())

    def test_dead_endpoint_evicts_without_solving(self):
        engine = self.make_square_engine(extra_instance=True)
        assert engine.submit(single_vnf_request(0, 0, 2), rng=1).success
        outcomes = engine.apply_fault(fail(FaultTarget.node(2)))
        assert [o.action for o in outcomes] == [RepairAction.EVICTED]
        assert outcomes[0].attempts == ()
        assert "endpoints dead" in outcomes[0].detail

    def test_recovery_restores_visibility(self):
        # 0-1-2 line: node 1 is the only route and the only host. While it
        # is down new arrivals fail; after recovery they succeed again.
        net = CloudNetwork(build_line_graph(3))
        net.deploy(1, 1, price=2.0, capacity=10.0)
        engine = EmbeddingEngine(net, MbbeEmbedder())
        assert engine.apply_fault(fail(FaultTarget.node(1))) == []
        assert not engine.submit(single_vnf_request(0, 0, 2), rng=1).success
        assert engine.apply_fault(recover(FaultTarget.node(1))) == []
        assert engine.submit(single_vnf_request(1, 0, 2), rng=1).success

    def test_unaffected_requests_are_left_alone(self):
        engine = self.make_square_engine()
        result = engine.submit(single_vnf_request(0, 0, 2), rng=1)
        assert result.success
        # Fail a link the embedding does not touch: nothing to repair.
        used = {key for key, _ in engine.ledger.state.used_links()}
        untouched = next(
            link.key for link in engine.network.graph.links() if link.key not in used
        )
        outcomes = engine.apply_fault(fail(FaultTarget.link(*untouched)))
        assert outcomes == []
        assert engine.counters["repairs_rerouted"] == 0
        assert list(engine.active_ids()) == [0]


class TestReplayWithFaults:
    def test_evicted_requests_are_not_double_released(self):
        # Request 0 is evicted at step 2 (its only host dies) but its trace
        # departure is step 5 — the replay must skip the stale departure.
        net = CloudNetwork(build_line_graph(3))
        net.deploy(1, 1, price=2.0, capacity=10.0)
        engine = EmbeddingEngine(net, MbbeEmbedder())
        dag = DagSfcBuilder().single(1).build()
        trace = ArrivalTrace(
            events=(
                TraceEvent(
                    step=0,
                    request=EmbeddingRequest(0, dag, 0, 2, FlowConfig(rate=1.0)),
                    departure_step=5,
                ),
            ),
            steps=8,
        )
        script = FaultScript(events=(fail(FaultTarget.instance(1, 1), time=2),), horizon=8)
        outcomes = replay(trace, engine, faults=script, rng=0)
        assert [o.action for o in outcomes] == [RepairAction.EVICTED]
        counters = engine.counters
        assert counters["accepted"] == 1
        assert counters["evictions"] == 1
        assert counters["departed"] == 0
        assert engine.active_count() == 0
        assert not any(True for _ in engine.ledger.state.used_links())

    def test_full_replay_conserves_capacity(self, small_config):
        net = generate_network(small_config, rng=7)
        trace = generate_trace(
            steps=40,
            n_nodes=small_config.size,
            n_vnf_types=small_config.n_vnf_types,
            sfc=SfcConfig(size=3),
            rng=8,
        )
        spec = FaultSpec(horizon=40, node_mtbf=15.0, link_mtbf=10.0, instance_mtbf=18.0)
        script = generate_fault_script(spec, net, rng=9)
        engine = EmbeddingEngine(net, MbbeEmbedder())
        outcomes = replay(trace, engine, faults=script, rng=10)
        evicted = engine.counters["evictions"]
        assert evicted == sum(1 for o in outcomes if o.action is RepairAction.EVICTED)
        assert 0 <= evicted <= engine.counters["accepted"]
        for rid in list(engine.active_ids()):
            engine.release(rid)
        assert not any(True for _ in engine.ledger.state.used_links())
        assert not any(True for _ in engine.ledger.state.used_vnfs())
