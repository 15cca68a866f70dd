"""The transport-agnostic embedding engine: lifecycle, faults, durability.

Unit tests drive :class:`~repro.engine.core.EmbeddingEngine` directly — no
sockets, no event loop — and the golden test closes the refactor's central
loop: one trace pushed through :meth:`~repro.engine.tick.ShardTick.step`
in-process and through a strict single-shard
:class:`~repro.service.EmbeddingServer` must produce identical decisions,
identical costs, and an identical ledger document, because both are thin
drivers over the same step.
"""

import asyncio
import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.engine import (
    DEFAULT_NETWORK_ID,
    ENGINE_COUNTER_KEYS,
    EmbeddingEngine,
    EmbeddingRequest,
    ShardTick,
    advertised_vnf_types,
    read_wal,
    restore_shards,
    shard_wal_path,
)
from repro.exceptions import ConfigurationError, LedgerError, WalError
from repro.wal import records as wal_records
from repro.faults.model import FaultAction, FaultEvent, FaultTarget
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.network.state import ResidualState
from repro.service import EmbeddingServer, ServiceClient, ServiceConfig
from repro.sfc.builder import DagSfcBuilder
from repro.sfc.generator import generate_dag_sfc
from repro.solvers.registry import make_solver
from repro.utils.rng import as_generator, trial_seed

from .conftest import build_line_graph


def engine_network(seed: int = 17) -> CloudNetwork:
    cfg = NetworkConfig(
        size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
        vnf_capacity=4.0, link_capacity=4.0,
    )
    return generate_network(cfg, rng=seed)


def tight_network(vnf_capacity: float = 1.0) -> CloudNetwork:
    """0-1-2 line where one unit-rate request saturates everything."""
    net = CloudNetwork(build_line_graph(3, price=1.0, capacity=1.0))
    net.deploy(1, 1, price=5.0, capacity=vnf_capacity)
    return net


def line_request(
    rid: int, *, rate: float = 1.0, seed: int | None = None, ends: tuple[int, int] = (0, 2)
) -> EmbeddingRequest:
    dag = DagSfcBuilder().single(1).build()
    return EmbeddingRequest(
        request_id=rid, dag=dag, source=ends[0], dest=ends[1], flow=FlowConfig(rate=rate),
        seed=seed,
    )


def make_requests(network: CloudNetwork, n: int, *, seed: int = 11) -> list[EmbeddingRequest]:
    gen = as_generator(seed)
    out = []
    for rid in range(n):
        dag = generate_dag_sfc(SfcConfig(size=3), 6, rng=gen)
        src, dst = (int(v) for v in gen.choice(network.num_nodes, size=2, replace=False))
        out.append(
            EmbeddingRequest(
                request_id=rid, dag=dag, source=src, dest=dst,
                flow=FlowConfig(rate=1.0), seed=int(gen.integers(2**31)),
                arrival_index=rid,
            )
        )
    return out


class TestEngineLifecycle:
    def test_submit_commit_release_roundtrip(self):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        result = engine.submit(line_request(1), rng=0)
        assert result.success
        assert engine.is_active(1)
        assert engine.active_count() == 1
        assert engine.counters["accepted"] == 1
        assert engine.counters["dispatched"] == 1
        assert engine.counters["total_cost_accepted"] == result.total_cost
        engine.release(1)
        assert not engine.is_active(1)
        assert engine.counters["departed"] == 1
        # Released capacity is reusable: the same request embeds again.
        assert engine.submit(line_request(2), rng=0).success

    def test_duplicate_submit_raises(self):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        assert engine.submit(line_request(1), rng=0).success
        with pytest.raises(LedgerError, match="already active"):
            engine.submit(line_request(1), rng=0)

    def test_release_unknown_raises(self):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        with pytest.raises(ConfigurationError):
            engine.release(99)

    def test_no_solution_decision(self):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        assert engine.submit(line_request(1), rng=0).success
        # The line is saturated: the next request has no feasible embedding.
        decision = engine.commit(line_request(2), engine.solve(line_request(2), rng=0))
        assert not decision.accepted
        assert decision.code == "no_solution"
        assert decision.decision_index == 1
        assert engine.counters["rejected_no_solution"] == 1

    def test_decision_indices_are_engine_global(self):
        engine = EmbeddingEngine(engine_network(), "MBBE")
        requests = make_requests(engine.network, 6)
        decisions = [engine.commit(r, engine.solve(r)) for r in requests]
        assert [d.decision_index for d in decisions] == list(range(6))
        accepted = [d for d in decisions if d.accepted]
        assert [d.commit_index for d in accepted] == list(range(len(accepted)))

    def test_speculative_batch_reports_capacity_conflict(self):
        # Two solves on one view, then two commits: the second embedding no
        # longer fits, and commit's safety net rejects it without touching
        # the ledger.
        engine = EmbeddingEngine(tight_network(), "MBBE")
        requests = [line_request(1, seed=0), line_request(2, seed=0)]
        view = engine.view()
        results = [engine.solve(r, view=view, rng=0) for r in requests]
        assert all(result.success for result in results)
        decisions = [engine.commit(r, result) for r, result in zip(requests, results)]
        assert [d.accepted for d in decisions] == [True, False]
        assert decisions[1].code == "capacity_conflict"
        assert engine.counters["rejected_conflict"] == 1
        assert list(engine.active_ids()) == [1]

    def test_solve_seed_prefers_request_seed(self):
        engine = EmbeddingEngine(tight_network(), "MBBE", seed=123)
        assert engine.solve_seed(line_request(1, seed=77)) == 77
        request = EmbeddingRequest(
            request_id=2, dag=DagSfcBuilder().single(1).build(),
            source=0, dest=2, arrival_index=9,
        )
        assert engine.solve_seed(request) == trial_seed(123, 9, salt=0x5EC5)


class TestEngineFaults:
    def test_fault_degrades_and_recovery_restores(self):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        assert engine.submit(line_request(1), rng=0).success
        outcomes = engine.apply_fault(
            FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.link(0, 1))
        )
        assert engine.degraded
        assert engine.counters["faults_injected"] == 1
        # The only path is dead and nothing else fits: the request is repaired
        # or evicted, but the ladder definitely ran over it.
        assert len(outcomes) == 1
        assert outcomes[0].request_id == 1
        engine.apply_fault(
            FaultEvent(time=1, action=FaultAction.RECOVER, target=FaultTarget.link(0, 1))
        )
        assert not engine.degraded
        assert engine.counters["recoveries"] == 1

    def test_duplicate_fail_is_a_noop(self):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        event = FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(0))
        engine.apply_fault(event)
        engine.apply_fault(event)
        assert engine.counters["faults_injected"] == 1

    def test_stats_reports_fault_gauges(self):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        engine.apply_fault(
            FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(0))
        )
        stats = engine.stats()
        assert stats["faults"]["degraded"] is True
        assert stats["faults"]["dead_nodes"] == 1
        assert set(stats["counters"]) == set(ENGINE_COUNTER_KEYS)


def network_shape(network: CloudNetwork) -> tuple:
    """Everything a solve can observe of a network, in iteration order."""
    graph, deployments = network.graph, network.deployments
    return (
        list(graph.nodes()),
        [(link.key, link.price, link.capacity) for link in graph.links()],
        [
            [(nb, link.key, link.price, link.capacity) for nb, link in graph.adjacency(node)]
            for node in graph.nodes()
        ],
        [
            [(t, inst.price, inst.capacity) for t, inst in deployments.instances_at(node)]
            for node in graph.nodes()
        ],
        [
            (inst.node, inst.vnf_type, inst.price, inst.capacity)
            for inst in deployments.all_instances()
        ],
        list(deployments.deployed_types),
        [list(deployments.nodes_with(t)) for t in sorted(deployments.deployed_types)],
    )


def count_builds(monkeypatch) -> list[int]:
    """Count ``ResidualState.to_network`` calls from here on (one entry each)."""
    builds: list[int] = []
    build = ResidualState.to_network

    def counted(state, faults=None):
        builds.append(1)
        return build(state, faults)

    monkeypatch.setattr(ResidualState, "to_network", counted)
    return builds


#: the elements of ``tight_network`` a fault can target.
_TIGHT_TARGETS = (
    FaultTarget.node(0),
    FaultTarget.node(1),
    FaultTarget.node(2),
    FaultTarget.link(0, 1),
    FaultTarget.link(1, 2),
    FaultTarget.instance(1, 1),
)

#: effect sequences on ``tight_network``: rates small enough to leave
#: residuals (patched in place) and large enough to saturate (rebuilt);
#: end pairs that load one link or both, so links saturate and free
#: apart and a freed link's position in the adjacency order matters.
_TIGHT_EFFECTS = st.lists(
    st.tuples(
        st.sampled_from(["commit", "conflict", "release", "fault", "recover", "migrate"]),
        st.integers(0, 5),
        st.sampled_from([0.25, 0.375, 0.5, 1.0]),
        st.sampled_from([(0, 2), (0, 1), (1, 2), (2, 0)]),
    ),
    max_size=20,
)


class TestResidualView:
    def test_view_follows_every_effect_kind(self):
        engine = EmbeddingEngine(engine_network(), "MBBE")

        def check_view() -> CloudNetwork:
            view = engine.view()
            assert engine.view() is view
            fresh = engine.ledger.state.to_network(faults=engine.faults)
            assert network_shape(view) == network_shape(fresh)
            return view

        check_view()
        requests = make_requests(engine.network, 8)
        decisions = []
        for request in requests:
            decisions.append(engine.commit(request, engine.solve(request)))
            check_view()
        accepted = [d.request_id for d in decisions if d.accepted]
        assert len(accepted) >= 3

        greedy = dataclasses.replace(
            requests[0], request_id=100, flow=FlowConfig(rate=100.0)
        )
        assert not engine.commit(greedy, engine.solve(greedy)).accepted
        check_view()

        engine.release(accepted[0])
        check_view()

        victim = engine.repair_engine.tracked(accepted[1]).embedding
        ends = {victim.source, victim.dest}
        node = next(n for n in victim.placements.values() if n not in ends)
        outcomes = engine.apply_fault(
            FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(node))
        )
        assert outcomes  # at least one repair effect was applied
        assert not check_view().graph.has_node(node)

        engine.apply_fault(
            FaultEvent(time=1, action=FaultAction.RECOVER, target=FaultTarget.node(node))
        )
        assert check_view().graph.has_node(node)

        moved = next(rid for rid in engine.active_ids())
        tracked = engine.repair_engine.tracked(moved)
        plan = engine.solver.embed(
            engine.ledger.credited(moved).to_network(engine.faults),
            tracked.embedding.dag,
            tracked.embedding.source,
            tracked.embedding.dest,
            tracked.flow,
        )
        assert engine.migrate(moved, plan).applied
        check_view()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(effects=_TIGHT_EFFECTS, vnf_capacity=st.sampled_from([1.0, 2.0]))
    # Link 0-1 saturates alone, then frees: a rebuild must restore its order.
    @example(
        effects=[("commit", 0, 1.0, (0, 1)), ("release", 0, 1.0, (0, 2))], vnf_capacity=2.0
    )
    def test_patched_view_equals_a_fresh_build_after_any_effect_sequence(
        self, effects, vnf_capacity
    ):
        # A roomier instance lets a link saturate or free on its own.
        engine = EmbeddingEngine(tight_network(vnf_capacity), "MBBE", seed=3)
        next_id = iter(range(1, 1000))

        for kind, pick, rate, ends in effects:
            view = engine.view()
            active = list(engine.active_ids())
            if kind == "commit":
                request = line_request(next(next_id), rate=rate, seed=pick, ends=ends)
                engine.commit(request, engine.solve(request, rng=pick))
            elif kind == "conflict":
                # Two solves on one view; the second commit may no longer fit.
                pair = [
                    line_request(next(next_id), rate=rate, seed=pick, ends=ends)
                    for _ in range(2)
                ]
                results = [engine.solve(r, view=view, rng=pick) for r in pair]
                for request, result in zip(pair, results):
                    engine.commit(request, result)
            elif kind == "release" and active:
                engine.release(active[pick % len(active)])
            elif kind in ("fault", "recover"):
                action = FaultAction.FAIL if kind == "fault" else FaultAction.RECOVER
                target = _TIGHT_TARGETS[pick]
                engine.apply_fault(FaultEvent(time=0, action=action, target=target))
            elif kind == "migrate" and active:
                moved = active[pick % len(active)]
                tracked = engine.repair_engine.tracked(moved)
                plan = engine.solver.embed(
                    engine.ledger.credited(moved).to_network(engine.faults),
                    tracked.embedding.dag,
                    tracked.embedding.source,
                    tracked.embedding.dest,
                    tracked.flow,
                    rng=pick,
                )
                engine.migrate(moved, plan)
            fresh = engine.ledger.state.to_network(faults=engine.faults)
            assert network_shape(engine.view()) == network_shape(fresh)

    def test_restore_builds_no_view(self, tmp_path, monkeypatch):
        network = engine_network()
        path = str(tmp_path / "engine.wal")
        engine = EmbeddingEngine(network, "MBBE", seed=5)
        engine.attach_wal_file(path)
        requests = make_requests(network, 8)
        for request in requests:
            engine.submit(request, rng=request.seed)
        for rid in list(engine.active_ids())[:3]:
            engine.release(rid)
        engine.detach_wal()
        assert len(read_wal(path).records) > 8
        builds = count_builds(monkeypatch)
        restored, _ = EmbeddingEngine.restore(network, "MBBE", path, seed=5)
        assert restored.ledger_fingerprint() == engine.ledger_fingerprint()
        assert builds == []

    def test_effects_that_keep_the_shape_build_one_view(self, monkeypatch):
        engine = EmbeddingEngine(engine_network(), "MBBE")
        builds = count_builds(monkeypatch)
        requests = [
            dataclasses.replace(r, flow=FlowConfig(rate=0.01))
            for r in make_requests(engine.network, 8)
        ]
        decisions = [engine.commit(r, engine.solve(r)) for r in requests]
        assert all(d.accepted for d in decisions)
        for decision in decisions[::2]:
            engine.release(decision.request_id)
        view = engine.view()
        assert builds == [1]
        assert network_shape(view) == network_shape(engine.ledger.state.to_network())

    def test_rejected_commits_keep_the_view(self, monkeypatch):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        view = engine.view()
        builds = count_builds(monkeypatch)
        greedy = line_request(1, rate=100.0, seed=0)
        decision = engine.commit(greedy, engine.solve(greedy, rng=0))
        assert decision.code == "no_solution"
        # Two solves on one view: the first commit leaves a residual (the
        # view is patched), the second no longer fits (capacity_conflict).
        pair = [line_request(2, rate=0.75, seed=0), line_request(3, rate=0.75, seed=0)]
        results = [engine.solve(r, view=view, rng=0) for r in pair]
        decisions = [engine.commit(r, result) for r, result in zip(pair, results)]
        assert [d.code for d in decisions] == [None, "capacity_conflict"]
        assert engine.view() is view
        assert builds == []


class TestEngineDurability:
    def test_snapshot_restore_roundtrip(self, tmp_path):
        network = engine_network()
        path = str(tmp_path / "engine.wal")
        engine = EmbeddingEngine(network, "MBBE", seed=5)
        engine.attach_wal_file(path)
        for request in make_requests(network, 8):
            engine.submit(request, rng=request.seed)
        engine.checkpoint({"submitted": 8})
        engine.detach_wal()
        restored, leftover = EmbeddingEngine.restore(network, "MBBE", path, seed=5)
        assert leftover == {"submitted": 8}
        assert restored.counters == engine.counters
        assert restored.ledger_fingerprint() == engine.ledger_fingerprint()
        assert restored.checkpoint_payload() == engine.checkpoint_payload()

    def test_restore_rejects_foreign_ledger(self, tmp_path):
        path = str(tmp_path / "engine.wal")
        other = EmbeddingEngine(engine_network(seed=99), "MBBE")
        other.attach_wal_file(path)
        other.detach_wal()
        with pytest.raises(WalError, match="different network"):
            EmbeddingEngine.restore(engine_network(), "MBBE", path)


class TestShards:
    def test_default_and_unknown_resolution(self):
        network_a = engine_network(1)
        server = EmbeddingServer({"a": network_a, "b": engine_network(2)})
        assert server.shard_tick() is server.shard_tick("a")
        assert server.shard_tick("b") is not server.shard_tick("a")
        assert server.shard_tick("a").engine.network is network_a
        with pytest.raises(ConfigurationError, match="unknown network_id"):
            server.shard_tick("zap")

    def test_single_shard_snapshot_is_plain_v1(self, tmp_path):
        network = engine_network()
        engine = EmbeddingEngine(network, "MBBE")
        path = shard_wal_path(str(tmp_path), DEFAULT_NETWORK_ID)
        engine.attach_wal_file(path, network_id=DEFAULT_NETWORK_ID)
        seq = engine.checkpoint()
        engine.detach_wal()
        # A checkpoint is one more record in a version-1 log, not a new format.
        header, checkpoint = read_wal(path).records
        assert header.payload["version"] == wal_records.WAL_VERSION == 1
        assert (checkpoint.seq, checkpoint.type) == (seq, wal_records.CHECKPOINT)
        engines, _ = restore_shards({DEFAULT_NETWORK_ID: network}, "MBBE", str(tmp_path))
        (restored,) = engines.values()
        assert restored.active_count() == 0
        assert restored.wal_applied_seq == seq

    def test_advertised_vnf_types_ignores_endpoints(self):
        network = tight_network()
        assert advertised_vnf_types(network) == 1


# -- the golden equivalence gate ------------------------------------------------------


class TestGoldenEquivalence:
    def test_sim_and_strict_service_share_one_state_machine(self):
        """One trace, two drivers, identical decisions / costs / ledger."""
        network = engine_network()
        requests = make_requests(network, 30)
        released = [r.request_id for r in requests[::3]]
        config = ServiceConfig(batch_size=1, queue_limit=64)

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    outcomes = []
                    for request in requests:
                        outcomes.append(
                            await client.submit(
                                request.request_id, request.dag, request.source,
                                request.dest, rate=request.rate, seed=request.seed,
                            )
                        )
                    releases = {
                        rid: await client.release(rid) for rid in released
                    }
                fingerprint = server.shard_tick().engine.ledger_fingerprint()
            return outcomes, releases, fingerprint

        outcomes, releases, service_fingerprint = asyncio.run(drive())
        # Sequential awaits pin the decision order to the submission order.
        assert [o.decision_index for o in outcomes] == list(range(len(requests)))

        engine = EmbeddingEngine(network, make_solver(config.solver))
        tick = ShardTick(engine)
        for request, outcome in zip(requests, outcomes):
            (decision,) = tick.step(submits=[(request, request.seed)]).decisions
            assert decision.accepted == outcome.accepted
            assert decision.decision_index == outcome.decision_index
            if decision.accepted:
                assert decision.total_cost == outcome.total_cost
        for rid in released:
            (error,) = tick.step(releases=[rid]).released
            assert (error is None) == releases[rid]
        assert engine.ledger_fingerprint() == service_fingerprint

        accepted = [o for o in outcomes if o.accepted]
        assert accepted, "workload must accept at least one request"
        assert engine.counters["accepted"] == len(accepted)
        assert engine.counters["total_cost_accepted"] == pytest.approx(
            sum(o.total_cost for o in accepted)
        )
