"""The constraint-plugin framework: specs, solver/engine/wire integration.

Covers the PR's acceptance surface end to end:

* spec/wire roundtrips for all three shipped plugins and the CLI mini-spec;
* solver-side pruning and pricing (delay budgets with LARAC escalation,
  anti-affinity count pruning, zone pricing and crossing caps);
* engine integration (commit-time re-validation, migrate refusal, repair
  under constraints, WAL payload roundtrips);
* the service protocol v2 field (omitted = backward compatible);
* hypothesis properties: every accepted embedding satisfies the registered
  set, and the empty set is decision-identical to the historical path.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.delay import dag_delay
from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.constraints import (
    AntiAffinityConstraint,
    ConstraintSet,
    ConstraintViolationError,
    DelayBudgetConstraint,
    ZonePricingConstraint,
    constraint_from_spec,
    constraints_from_specs,
    parse_constraint_arg,
    parse_constraint_args,
    registered_kinds,
)
from repro.engine import EmbeddingEngine, EmbeddingRequest
from repro.exceptions import ConfigurationError, ProtocolError, WalError
from repro.faults.model import FaultAction, FaultEvent, FaultTarget
from repro.faults.repair import RepairAction
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.network.graph import Graph
from repro.service import protocol
from repro.sfc.builder import DagSfcBuilder
from repro.sfc.generator import generate_dag_sfc
from repro.solvers import BbeEmbedder, MbbeEmbedder
from repro.solvers.registry import make_solver
from repro.wal import records as wal_records

from .conftest import build_line_graph

# ---------------------------------------------------------------------------
# substrates used across the file


def _cloud(links, deployments, *, n_nodes):
    """A tiny CloudNetwork: links = (u, v, price), deployments = (node, vnf, price)."""
    g = Graph()
    g.add_nodes(range(n_nodes))
    for u, v, price in links:
        g.add_link(u, v, price=price, capacity=100.0)
    net = CloudNetwork(g)
    for node, vnf, price in deployments:
        net.deploy(node, vnf, price=price, capacity=100.0)
    return net


def chain_dag(*types):
    b = DagSfcBuilder()
    for t in types:
        b.single(t)
    return b.build()


# ---------------------------------------------------------------------------
# ConstraintSet mechanics


class TestConstraintSet:
    def test_empty_set_is_falsy_and_canonical(self):
        assert not ConstraintSet.EMPTY
        assert ConstraintSet.coerce(None) is ConstraintSet.EMPTY
        assert ConstraintSet.coerce([]) == ConstraintSet.EMPTY
        cset = ConstraintSet([DelayBudgetConstraint(budget=5.0)])
        assert ConstraintSet.coerce(cset) is cset
        assert len(cset) == 1 and bool(cset)

    def test_equality_and_hash_follow_members(self):
        a = ConstraintSet([DelayBudgetConstraint(budget=5.0)])
        b = ConstraintSet([DelayBudgetConstraint(budget=5.0)])
        c = ConstraintSet([DelayBudgetConstraint(budget=6.0)])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_link_weight_is_price_plus_surcharges(self):
        zones = ZonePricingConstraint(count=2, multiplier=3.0)
        delay = DelayBudgetConstraint(budget=9.0, per_hop_delay=0.5, lam=2.0)
        cset = ConstraintSet([zones, delay])
        assert cset.prices_links
        g = build_line_graph(3, price=4.0)
        cross = g.link(0, 1)  # zones 0 -> 1 under node % 2
        # zone surcharge 4*(3-1)=8, delay surcharge lam*per_hop=1.0
        assert cset.link_surcharge(cross) == pytest.approx(9.0)
        assert cset.link_weight(cross) == pytest.approx(13.0)

    def test_unpriced_set_reports_no_link_pricing(self):
        cset = ConstraintSet([AntiAffinityConstraint(spread=(1,))])
        assert not cset.prices_links


# ---------------------------------------------------------------------------
# specs, registry, CLI mini-specs


class TestSpecs:
    @pytest.mark.parametrize(
        "constraint",
        [
            DelayBudgetConstraint(budget=7.5, per_hop_delay=0.2, initial_lambda=2.0),
            AntiAffinityConstraint(pairs=((1, 2), (3, 5)), spread=(4,)),
            ZonePricingConstraint(count=3, multiplier=2.5, max_crossings=2),
            ZonePricingConstraint(assignments=((0, 1), (5, 0)), multiplier=1.5),
        ],
    )
    def test_spec_roundtrip(self, constraint):
        rebuilt = constraint_from_spec(constraint.spec())
        assert rebuilt == constraint
        assert rebuilt.spec() == constraint.spec()

    def test_set_specs_roundtrip_preserves_order(self):
        cset = ConstraintSet(
            [
                ZonePricingConstraint(count=2),
                DelayBudgetConstraint(budget=4.0),
            ]
        )
        rebuilt = constraints_from_specs(cset.specs())
        assert rebuilt == cset
        assert [c.kind for c in rebuilt] == ["zones", "delay"]

    def test_registered_kinds_include_the_shipped_plugins(self):
        kinds = registered_kinds()
        for kind in ("delay", "affinity", "zones", "completeness", "capacity"):
            assert kind in kinds

    def test_unknown_kind_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown constraint kind"):
            constraint_from_spec({"kind": "teleport"})
        with pytest.raises(ConfigurationError, match="missing its kind"):
            constraint_from_spec({"budget": 3})

    def test_cli_minispec_parses_values_and_repeats(self):
        c = parse_constraint_arg("delay:budget=12,per_hop_delay=0.5")
        assert c == DelayBudgetConstraint(budget=12.0, per_hop_delay=0.5)
        a = parse_constraint_arg("affinity:pair=1-2,pair=0-3,spread=4")
        assert a.pairs == ((0, 3), (1, 2))
        assert a.spread == (4,)
        cset = parse_constraint_args(["zones:count=2", "delay:budget=6"])
        assert [c.kind for c in cset] == ["zones", "delay"]
        assert parse_constraint_args(None) is ConstraintSet.EMPTY

    def test_cli_minispec_rejects_malformed_options(self):
        with pytest.raises(ConfigurationError):
            parse_constraint_arg("delay:budget")
        with pytest.raises(ConfigurationError):
            parse_constraint_arg(":budget=1")


# ---------------------------------------------------------------------------
# delay budgets (LARAC)


class TestDelayBudget:
    def larac_net(self):
        # 0-1-2-3-4 at price 1 plus a 1-hop shortcut 1-3 at price 4; the
        # cheap chain route needs 4 hops, the shortcut route 3.
        return _cloud(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 4.0)],
            [(1, 1, 1.0), (3, 2, 1.0)],
            n_nodes=5,
        )

    def test_reprice_escalates_lambda(self):
        c = DelayBudgetConstraint(budget=5.0, initial_lambda=2.0)
        assert not c.prices_links
        r1 = c.repriced(None, None, None)
        assert r1.lam == 2.0 and r1.prices_links
        r2 = r1.repriced(None, None, None)
        assert r2.lam == 4.0
        # Repricing hops is pointless when hops carry no delay.
        assert DelayBudgetConstraint(per_hop_delay=0.0).repriced(None, None, None) is None

    def test_larac_loop_reroutes_inside_the_budget(self):
        net = self.larac_net()
        dag = chain_dag(1, 2)
        budget = DelayBudgetConstraint(
            budget=3.0, per_hop_delay=1.0, processing_delay=0.0,
            merger_delay=0.0, initial_lambda=3.0,
        )
        unconstrained = MbbeEmbedder().embed(net, dag, 0, 4, FlowConfig())
        assert unconstrained.success
        assert dag_delay(unconstrained.embedding, budget.model()) == pytest.approx(4.0)

        result = MbbeEmbedder().embed(
            net, dag, 0, 4, FlowConfig(), constraints=[budget]
        )
        assert result.success
        assert result.stats["constraint_rounds"] == 2  # one reprice round
        assert dag_delay(result.embedding, budget.model()) == pytest.approx(3.0)
        # The Lagrangian detour is costlier in eq. 1 terms — by design: the
        # surcharge steers search, the objective keeps the real prices.
        assert result.total_cost > unconstrained.total_cost

    def test_impossible_budget_fails_with_constraint_reason(self):
        net = self.larac_net()
        result = MbbeEmbedder().embed(
            net, chain_dag(1, 2), 0, 4, FlowConfig(),
            constraints=[DelayBudgetConstraint(budget=1.0, per_hop_delay=1.0,
                                               processing_delay=0.0)],
        )
        assert not result.success
        assert result.embedding is None

    def test_verify_flags_over_budget_embeddings(self):
        net = self.larac_net()
        ok = MbbeEmbedder().embed(net, chain_dag(1, 2), 0, 4, FlowConfig())
        assert ok.success
        tight = DelayBudgetConstraint(budget=0.5, processing_delay=0.0)
        with pytest.raises(ConstraintViolationError, match="exceeds budget"):
            tight.verify(net, ok.embedding, FlowConfig())
        generous = DelayBudgetConstraint(budget=100.0)
        generous.verify(net, ok.embedding, FlowConfig())  # no raise


# ---------------------------------------------------------------------------
# anti-affinity


class TestAntiAffinity:
    def test_pair_rule_moves_the_rival_category(self):
        # Types 1 and 2 are both cheapest on node 1; type 2 has a pricy
        # fallback on node 2.
        net = _cloud(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
            [(1, 1, 1.0), (1, 2, 1.0), (2, 2, 50.0)],
            n_nodes=4,
        )
        dag = chain_dag(1, 2)
        free = MbbeEmbedder().embed(net, dag, 0, 3, FlowConfig())
        assert free.success
        assert len({free.embedding.placements[p] for p in dag.positions()}) == 1

        rule = AntiAffinityConstraint(pairs=((1, 2),))
        kept = MbbeEmbedder().embed(net, dag, 0, 3, FlowConfig(), constraints=[rule])
        assert kept.success
        nodes = {kept.embedding.placements[p] for p in dag.positions()}
        assert len(nodes) == 2
        rule.verify(net, kept.embedding, FlowConfig())  # no raise
        with pytest.raises(ConstraintViolationError, match="share node"):
            rule.verify(net, free.embedding, FlowConfig())
        assert kept.total_cost > free.total_cost

    def test_pair_rule_with_no_alternative_is_infeasible(self):
        net = _cloud(
            [(0, 1, 1.0), (1, 2, 1.0)],
            [(1, 1, 1.0), (1, 2, 1.0)],
            n_nodes=3,
        )
        result = MbbeEmbedder().embed(
            net, chain_dag(1, 2), 0, 2, FlowConfig(),
            constraints=[AntiAffinityConstraint(pairs=((1, 2),))],
        )
        assert not result.success

    def test_spread_rule_unstacks_a_category(self):
        net = _cloud(
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)],
            [(1, 1, 1.0), (2, 1, 20.0)],
            n_nodes=4,
        )
        dag = chain_dag(1, 1)
        free = MbbeEmbedder().embed(net, dag, 0, 3, FlowConfig())
        assert free.success
        assert len({free.embedding.placements[p] for p in dag.positions()}) == 1

        rule = AntiAffinityConstraint(spread=(1,))
        spreadout = MbbeEmbedder().embed(net, dag, 0, 3, FlowConfig(), constraints=[rule])
        assert spreadout.success
        assert len({spreadout.embedding.placements[p] for p in dag.positions()}) == 2
        with pytest.raises(ConstraintViolationError, match="stacked"):
            rule.verify(net, free.embedding, FlowConfig())

    def test_constructor_rejects_degenerate_rules(self):
        with pytest.raises(ConfigurationError):
            AntiAffinityConstraint()
        with pytest.raises(ConfigurationError):
            constraint_from_spec({"kind": "affinity", "pairs": ["3-3"]})


# ---------------------------------------------------------------------------
# zone pricing


class TestZones:
    def zoned_net(self):
        # 0 and 2 share zone 0; the cheap route detours through zone 1.
        return _cloud(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 9.0)],
            [(0, 1, 1.0)],
            n_nodes=3,
        )

    ZONED = ZonePricingConstraint(
        assignments=((0, 0), (1, 1), (2, 0)), multiplier=1.0, max_crossings=0
    )

    def test_zone_partition_and_crossings(self):
        rr = ZonePricingConstraint(count=3)
        assert [rr.zone_of(n) for n in range(5)] == [0, 1, 2, 0, 1]
        assert rr.crosses(0, 1) and not rr.crosses(0, 3)
        explicit = self.ZONED
        assert explicit.zone_of(1) == 1 and explicit.zone_of(2) == 0
        assert not explicit.crosses(0, 2)

    def test_crossing_cap_forces_the_in_zone_route(self):
        net = self.zoned_net()
        dag = chain_dag(1)
        free = MbbeEmbedder().embed(net, dag, 0, 2, FlowConfig())
        assert free.success and free.cost.link_cost == pytest.approx(2.0)

        capped = MbbeEmbedder().embed(
            net, dag, 0, 2, FlowConfig(), constraints=[self.ZONED]
        )
        assert capped.success
        assert capped.cost.link_cost == pytest.approx(9.0)
        self.ZONED.verify(net, capped.embedding, FlowConfig())  # no raise
        with pytest.raises(ConstraintViolationError, match="cross-zone"):
            self.ZONED.verify(net, free.embedding, FlowConfig())

    def test_multiplier_steers_without_changing_the_objective(self):
        net = self.zoned_net()
        priced = ZonePricingConstraint(
            assignments=((0, 0), (1, 1), (2, 0)), multiplier=5.0
        )
        # Weighted search: 0-1-2 costs (1+4)+(1+4)=10, 0-2 costs 9.
        result = MbbeEmbedder().embed(
            net, chain_dag(1), 0, 2, FlowConfig(), constraints=[priced]
        )
        assert result.success
        # The in-zone link is chosen, and the objective charges its *real*
        # price (9), not the search weight.
        assert result.cost.link_cost == pytest.approx(9.0)

    def test_surcharge_applies_only_to_crossing_links(self):
        g = build_line_graph(3, price=2.0)
        priced = ZonePricingConstraint(assignments=((0, 0), (1, 0), (2, 1)),
                                       multiplier=4.0)
        assert priced.link_surcharge(g.link(0, 1)) == 0.0
        assert priced.link_surcharge(g.link(1, 2)) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# engine integration: commit, migrate, repair, WAL


def zoned_request(rid, cset, *, seed=0):
    return EmbeddingRequest(
        request_id=rid, dag=chain_dag(1), source=0, dest=2,
        flow=FlowConfig(rate=1.0), seed=seed, constraints=cset,
    )


class TestEngineIntegration:
    def zoned_net(self):
        return _cloud(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 9.0)],
            [(0, 1, 1.0)],
            n_nodes=3,
        )

    CSET = ConstraintSet([TestZones.ZONED])

    def test_submit_honors_constraints_end_to_end(self):
        engine = EmbeddingEngine(self.zoned_net(), "MBBE")
        result = engine.submit(zoned_request(1, self.CSET), rng=0)
        assert result.success
        assert result.cost.link_cost == pytest.approx(9.0)
        assert engine.is_active(1)

    def test_commit_revalidates_against_the_request_rules(self):
        engine = EmbeddingEngine(self.zoned_net(), "MBBE")
        request = zoned_request(1, self.CSET)
        # An unconstrained solve picks the cheap cross-zone route; committing
        # it under the zoned request must be refused, not applied.
        rogue = engine.solve(dataclasses.replace(request, constraints=ConstraintSet.EMPTY))
        assert rogue.success and rogue.cost.link_cost == pytest.approx(2.0)
        decision = engine.commit(request, rogue)
        assert not decision.accepted
        assert decision.code == "constraint_violation"
        assert "cross-zone" in decision.reason
        assert engine.counters["rejected_no_solution"] == 1
        assert not engine.is_active(1)

    def test_migrate_refuses_out_of_bounds_moves(self):
        engine = EmbeddingEngine(self.zoned_net(), "MBBE")
        request = zoned_request(1, self.CSET)
        assert engine.submit(request, rng=0).success
        rogue = engine.solve(dataclasses.replace(request, constraints=ConstraintSet.EMPTY))
        migration = engine.migrate(1, rogue)
        assert not migration.applied
        assert migration.code == "constraint_violation"
        assert engine.is_active(1)  # old embedding untouched

    def test_repair_honors_constraints(self):
        # 0-1-2 plus a detour through node 3; node 3 is in a foreign zone,
        # so a crossing cap of 0 forbids every detour.
        def net():
            return _cloud(
                [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0), (3, 2, 1.0)],
                [(1, 1, 1.0)],
                n_nodes=4,
            )

        cap = ConstraintSet([
            ZonePricingConstraint(
                assignments=((0, 0), (1, 0), (2, 0), (3, 1)),
                multiplier=1.0, max_crossings=0,
            )
        ])
        fault = FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.link(1, 2))

        free_engine = EmbeddingEngine(net(), "MBBE")
        assert free_engine.submit(zoned_request(1, ConstraintSet.EMPTY), rng=0).success
        outcomes = free_engine.apply_fault(fault)
        assert [o.action for o in outcomes] != [RepairAction.EVICTED]
        assert free_engine.is_active(1)  # detour 1-3-2 keeps it alive

        capped_engine = EmbeddingEngine(net(), "MBBE")
        assert capped_engine.submit(zoned_request(1, cap), rng=0).success
        outcomes = capped_engine.apply_fault(fault)
        assert [o.action for o in outcomes] == [RepairAction.EVICTED]
        assert not capped_engine.is_active(1)  # no lawful detour exists

    def test_wal_replay_restores_constraints(self, tmp_path):
        wal_path = str(tmp_path / "engine.wal")
        engine = EmbeddingEngine(self.zoned_net(), "MBBE")
        engine.attach_wal_file(wal_path)
        assert engine.submit(zoned_request(1, self.CSET), rng=0).success
        engine.detach_wal()

        recovered, _ = EmbeddingEngine.restore(self.zoned_net(), "MBBE", wal_path)
        tracked = recovered.repair_engine.tracked(1)
        assert tracked is not None
        assert tracked.constraints == self.CSET
        # The replayed request keeps refusing out-of-bounds migrations.
        rogue = recovered.solve(zoned_request(2, ConstraintSet.EMPTY))
        assert recovered.migrate(1, rogue).code == "constraint_violation"

    def test_wal_payload_roundtrip(self):
        cset = ConstraintSet([DelayBudgetConstraint(budget=8.0)])
        payload = wal_records.ReleaseEffect(3).to_payload()
        assert "constraints" not in payload
        assert wal_records.constraints_from_payload(payload) is ConstraintSet.EMPTY
        assert wal_records.constraints_from_payload(
            {"constraints": cset.specs()}
        ) == cset
        with pytest.raises(WalError, match="malformed constraints"):
            wal_records.constraints_from_payload({"constraints": [{"kind": "nope"}]})


# ---------------------------------------------------------------------------
# wire protocol (v2 constraints field)


class TestWireProtocol:
    CSET = ConstraintSet([
        DelayBudgetConstraint(budget=10.0),
        ZonePricingConstraint(count=2, multiplier=1.5),
    ])

    def submit_message(self, constraints=None):
        return protocol.submit_message(
            msg_id=1, request_id=7, dag=chain_dag(1), source=0, dest=2,
            rate=1.0, seed=5, constraints=constraints,
        )

    def test_reject_codes_include_constraint_violation(self):
        assert "constraint_violation" in protocol.REJECT_CODES

    def test_field_omitted_when_unconstrained(self):
        message = self.submit_message()
        assert "constraints" not in message
        intent = protocol.submit_from_message(message)
        assert intent.constraints is ConstraintSet.EMPTY

    def test_constraints_roundtrip_over_the_wire(self):
        message = self.submit_message(self.CSET)
        assert message["constraints"] == self.CSET.specs()
        intent = protocol.submit_from_message(message)
        assert intent.constraints == self.CSET
        # Pre-serialized spec lists work identically (loadgen's path).
        again = protocol.submit_from_message(self.submit_message(self.CSET.specs()))
        assert again.constraints == self.CSET

    def test_malformed_wire_constraints_are_protocol_errors(self):
        message = self.submit_message(self.CSET)
        message["constraints"] = {"kind": "delay"}
        with pytest.raises(ProtocolError, match="list of specs"):
            protocol.submit_from_message(message)
        message["constraints"] = [{"kind": "teleport"}]
        with pytest.raises(ProtocolError, match="malformed submit constraints"):
            protocol.submit_from_message(message)

    def test_service_end_to_end_under_constraints(self):
        from repro.service import EmbeddingServer, ServiceClient, ServiceConfig

        net = _cloud(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 9.0)],
            [(0, 1, 1.0)],
            n_nodes=3,
        )
        cap = [TestZones.ZONED.spec()]
        # Violated by processing delay alone, which per-path pruning cannot
        # see and hop repricing cannot fix -> the verify-side rejection.
        impossible = [DelayBudgetConstraint(
            budget=0.5, per_hop_delay=0.0, processing_delay=1.0
        ).spec()]

        async def drive():
            async with EmbeddingServer(net, ServiceConfig()) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    good = await client.submit(
                        1, chain_dag(1), 0, 2, seed=0, constraints=cap
                    )
                    bad = await client.submit(
                        2, chain_dag(1), 0, 2, seed=0, constraints=impossible
                    )
                    plain = await client.submit(3, chain_dag(1), 0, 2, seed=0)
            return good, bad, plain

        good, bad, plain = asyncio.run(drive())
        assert good.accepted
        assert good.total_cost > plain.total_cost or not plain.accepted
        assert not bad.accepted
        assert "constraint" in (bad.reason or "")


# ---------------------------------------------------------------------------
# properties


MODERATE = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

nets = st.builds(
    lambda seed, size: generate_network(
        NetworkConfig(
            size=size, connectivity=4.0, n_vnf_types=5, deploy_ratio=0.7,
            vnf_capacity=100.0, link_capacity=100.0,
        ),
        rng=seed,
    ),
    seed=st.integers(0, 5_000),
    size=st.integers(10, 30),
)

constraint_sets = st.lists(
    st.one_of(
        st.builds(
            DelayBudgetConstraint,
            budget=st.floats(5.0, 60.0),
            per_hop_delay=st.floats(0.1, 1.0),
            initial_lambda=st.floats(0.5, 4.0),
        ),
        st.builds(
            AntiAffinityConstraint,
            spread=st.sets(st.integers(0, 4), min_size=1, max_size=3).map(
                lambda s: tuple(sorted(s))
            ),
        ),
        st.builds(
            ZonePricingConstraint,
            count=st.integers(2, 4),
            multiplier=st.floats(1.0, 3.0),
            max_crossings=st.one_of(st.none(), st.integers(2, 8)),
        ),
    ),
    min_size=0,
    max_size=2,
).map(ConstraintSet)


class TestProperties:
    @given(net=nets, cset=constraint_sets, seed=st.integers(0, 1000))
    @MODERATE
    def test_accepted_embeddings_satisfy_every_registered_constraint(
        self, net, cset, seed
    ):
        dag = generate_dag_sfc(SfcConfig(size=3), 5, rng=seed)
        result = MbbeEmbedder().embed(
            net, dag, 0, net.num_nodes - 1, FlowConfig(), rng=seed,
            constraints=cset,
        )
        if result.success:
            assert cset.check(net, result.embedding, FlowConfig()) is None
        else:
            assert result.embedding is None

    @given(net=nets, seed=st.integers(0, 1000))
    @MODERATE
    def test_empty_set_is_decision_identical_to_the_historical_path(
        self, net, seed
    ):
        dag = generate_dag_sfc(SfcConfig(size=4), 5, rng=seed)
        flow = FlowConfig()
        baseline = MbbeEmbedder().embed(net, dag, 0, net.num_nodes - 1, flow, rng=seed)
        for empty in (ConstraintSet.EMPTY, [], None):
            replay = MbbeEmbedder().embed(
                net, dag, 0, net.num_nodes - 1, flow, rng=seed, constraints=empty
            )
            assert replay.success == baseline.success
            if baseline.success:
                assert replay.embedding.placements == baseline.embedding.placements
                assert replay.embedding.inter_paths == baseline.embedding.inter_paths
                assert replay.embedding.inner_paths == baseline.embedding.inner_paths
                assert replay.total_cost == baseline.total_cost


class TestEmptySetGridEquivalence:
    """The empty registry must be bit-identical across the solver grid."""

    @pytest.mark.parametrize("solver_name", ["BBE", "MBBE", "MBBE-S"])
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_solver_grid(self, solver_name, seed):
        net = generate_network(
            NetworkConfig(size=40, connectivity=4.0, n_vnf_types=6,
                          deploy_ratio=0.6, vnf_capacity=100.0,
                          link_capacity=100.0),
            rng=seed,
        )
        dag = generate_dag_sfc(SfcConfig(size=4), 6, rng=seed)
        solver = make_solver(solver_name)
        a = solver.embed(net, dag, 0, 39, FlowConfig(), rng=seed)
        b = solver.embed(net, dag, 0, 39, FlowConfig(), rng=seed,
                         constraints=ConstraintSet.EMPTY)
        assert a.success == b.success
        if a.success:
            assert a.embedding.placements == b.embedding.placements
            assert a.embedding.inter_paths == b.embedding.inter_paths
            assert a.embedding.inner_paths == b.embedding.inner_paths
            assert a.total_cost == b.total_cost

    def test_bbe_accepts_constraints_too(self):
        net = _cloud(
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 9.0)],
            [(0, 1, 1.0)],
            n_nodes=3,
        )
        result = BbeEmbedder().embed(
            net, chain_dag(1), 0, 2, FlowConfig(), constraints=[TestZones.ZONED]
        )
        assert result.success
        assert result.cost.link_cost == pytest.approx(9.0)
