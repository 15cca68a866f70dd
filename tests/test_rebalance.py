"""The self-healing substrate: guarded live migration, tested bottom-up.

* the transaction — ``EmbeddingEngine.migrate`` re-validates at apply
  time, swaps release-old + reserve-new as one effect, rolls a capacity
  conflict back without a trace, and logs exactly the applied moves;
* the loop — the :class:`~repro.engine.rebalance.Rebalancer` recovers
  real cost on a fragmented substrate while honouring its move budget,
  gain threshold, cooldown rotation, and fault-preemption pause;
* durability — migrations replay from the WAL (and tail into a standby)
  to the primary's exact fingerprint, counters included;
* determinism — identically seeded engines produce identical cycles,
  in-process and as requested cycles of ``ShardTick.step``;
* the wire — the ``rebalance`` verb (cycle + inspect), per-shard stats,
  degraded pause/resume over a live server, the background pump and churny
  load generation.

Plain ``asyncio.run`` per test — no asyncio pytest plugin is assumed.
"""

import asyncio
import dataclasses
import time

import pytest

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.engine import (
    DEFAULT_NETWORK_ID,
    REBALANCE_COUNTER_KEYS,
    EmbeddingEngine,
    EmbeddingRequest,
    RebalanceConfig,
    Rebalancer,
    ShardTick,
    StandbyEngine,
    fragmentation_index,
    shard_wal_path,
)
from repro.exceptions import ConfigurationError
from repro.faults.model import FaultAction, FaultEvent, FaultTarget
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.service import EmbeddingServer, ServiceClient, ServiceConfig
from repro.service.loadgen import run_load
from repro.sfc.generator import generate_dag_sfc
from repro.sim.trace import generate_trace
from repro.solvers.registry import make_solver
from repro.utils.rng import as_generator


def run(coro):
    return asyncio.run(coro)


def tight_network(seed: int = 3) -> CloudNetwork:
    """A deliberately tight substrate: arrival order leaves genuinely
    sub-optimal placements behind once part of the population departs."""
    cfg = NetworkConfig(
        size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
        vnf_capacity=2.0, link_capacity=2.0,
    )
    return generate_network(cfg, rng=seed)


def make_requests(
    network: CloudNetwork, n: int, *, seed: int = 11
) -> list[EmbeddingRequest]:
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


def fill_and_churn(engine: EmbeddingEngine, requests) -> list[int]:
    """Submit a burst, release every other accept; returns surviving ids."""
    accepted = []
    for request in requests:
        if engine.submit(request, rng=request.seed).success:
            accepted.append(request.request_id)
    for rid in accepted[::2]:
        engine.release(rid)
    return [rid for rid in accepted if engine.ledger.is_active(rid)]


def fragmented_engine(seed: int = 3) -> tuple[EmbeddingEngine, list[int]]:
    engine = EmbeddingEngine(tight_network(seed), "MBBE", seed=seed)
    survivors = fill_and_churn(engine, make_requests(engine.network, 60, seed=seed + 100))
    return engine, survivors


EAGER = RebalanceConfig(max_moves=4, candidates=16, min_gain=0.001, cooldown=1)


def first_planned_move(rebalancer: Rebalancer):
    """Plan (never apply) until a move is found; the ledger stays untouched."""
    for _ in range(8):
        scanned, moves = rebalancer.plan()
        if moves:
            return moves[0]
        if scanned == 0:
            break
    raise AssertionError("tight substrate produced no improvable placement")


# -- the migrate transaction ------------------------------------------------------


class TestMigrate:
    def test_departed_request_is_a_noop(self):
        engine, survivors = fragmented_engine()
        move = first_planned_move(Rebalancer(engine, EAGER))
        fingerprint = engine.ledger_fingerprint()
        engine.release(move.request_id)
        after_release = engine.ledger_fingerprint()
        outcome = engine.migrate(move.request_id, move.result)
        assert not outcome.applied
        assert outcome.code == "departed"
        assert engine.ledger_fingerprint() == after_release != fingerprint
        assert engine.rebalance_counters["migrations_applied"] == 0
        assert engine.rebalance_counters["migrations_conflicted"] == 0

    def test_failed_result_is_no_solution(self):
        engine, survivors = fragmented_engine()
        move = first_planned_move(Rebalancer(engine, EAGER))
        failed = dataclasses.replace(
            move.result, success=False, reason="planner gave up"
        )
        fingerprint = engine.ledger_fingerprint()
        outcome = engine.migrate(move.request_id, failed)
        assert not outcome.applied
        assert outcome.code == "no_solution"
        assert outcome.reason == "planner gave up"
        assert engine.ledger_fingerprint() == fingerprint

    def test_applied_migration_swaps_the_reservation_atomically(self):
        engine, survivors = fragmented_engine()
        move = first_planned_move(Rebalancer(engine, EAGER))
        active_before = set(engine.active_ids())
        old_cost = engine.ledger.reservation(move.request_id).cost
        outcome = engine.migrate(move.request_id, move.result)
        assert outcome.applied
        assert outcome.old_cost == pytest.approx(old_cost)
        assert outcome.new_cost == pytest.approx(move.result.total_cost)
        assert outcome.gain > 0
        # Same active population, one reservation re-priced.
        assert set(engine.active_ids()) == active_before
        assert engine.ledger.reservation(move.request_id).cost == pytest.approx(
            move.result.total_cost
        )
        assert engine.rebalance_counters["migrations_applied"] == 1
        assert engine.rebalance_counters["cost_recovered"] == pytest.approx(
            outcome.gain
        )

    def test_capacity_conflict_rolls_back_without_a_trace(self):
        engine, survivors = fragmented_engine()
        move = first_planned_move(Rebalancer(engine, EAGER))
        # A replacement bloated far past any residual: reserve must refuse,
        # and the transaction must restore the old reservation exactly.
        bloated_cost = dataclasses.replace(
            move.result.cost,
            alpha_vnf={key: count * 1000 for key, count in move.result.cost.alpha_vnf.items()},
            alpha_link={key: count * 1000 for key, count in move.result.cost.alpha_link.items()},
        )
        bloated = dataclasses.replace(move.result, cost=bloated_cost)
        fingerprint = engine.ledger_fingerprint()
        outcome = engine.migrate(move.request_id, bloated)
        assert not outcome.applied
        assert outcome.code == "capacity_conflict"
        assert outcome.reason
        assert engine.ledger_fingerprint() == fingerprint
        assert engine.rebalance_counters["migrations_conflicted"] == 1
        assert engine.rebalance_counters["migrations_applied"] == 0
        # The rolled-back request is still live and still releasable.
        assert engine.ledger.is_active(move.request_id)


# -- the rebalance loop -----------------------------------------------------------


class TestRebalancer:
    def test_recovers_cost_on_a_fragmented_substrate(self):
        engine, survivors = fragmented_engine()
        costs_before = {
            rid: engine.ledger.reservation(rid).cost for rid in survivors
        }
        rebalancer = Rebalancer(engine, EAGER)
        reports = [rebalancer.run_cycle() for _ in range(8)]
        applied = sum(report.applied for report in reports)
        recovered = sum(report.cost_recovered for report in reports)
        assert applied > 0
        assert recovered > 0
        assert engine.rebalance_counters["migrations_applied"] == applied
        assert engine.rebalance_counters["cost_recovered"] == pytest.approx(recovered)
        # Migration never changes who holds resources, only at what cost.
        assert set(engine.active_ids()) == set(survivors)
        total_after = sum(engine.ledger.reservation(rid).cost for rid in survivors)
        assert total_after == pytest.approx(sum(costs_before.values()) - recovered)

    def test_move_budget_caps_every_cycle(self):
        engine, _ = fragmented_engine()
        config = RebalanceConfig(max_moves=1, candidates=16, min_gain=0.001, cooldown=1)
        rebalancer = Rebalancer(engine, config)
        reports = [rebalancer.run_cycle() for _ in range(6)]
        assert all(report.planned <= 1 and report.applied <= 1 for report in reports)
        assert sum(report.applied for report in reports) >= 1

    def test_min_gain_threshold_blocks_churn_for_nothing(self):
        engine, _ = fragmented_engine()
        config = RebalanceConfig(max_moves=4, candidates=16, min_gain=1e6, cooldown=1)
        rebalancer = Rebalancer(engine, config)
        fingerprint = engine.ledger_fingerprint()
        reports = [rebalancer.run_cycle() for _ in range(3)]
        assert all(report.planned == 0 and report.applied == 0 for report in reports)
        assert any(report.scanned > 0 for report in reports)
        assert engine.ledger_fingerprint() == fingerprint

    def test_cooldown_rotates_the_scan_instead_of_thrashing(self):
        engine, survivors = fragmented_engine()
        config = RebalanceConfig(
            max_moves=0, candidates=len(survivors) + 1, min_gain=0.001, cooldown=2
        )
        rebalancer = Rebalancer(engine, config)
        first = rebalancer.run_cycle()
        assert first.scanned == len(survivors)
        # Every id is cooling down for the next `cooldown` cycles...
        assert rebalancer.run_cycle().scanned == 0
        assert rebalancer.run_cycle().scanned == 0
        # ...then the whole population becomes eligible again.
        assert rebalancer.run_cycle().scanned == len(survivors)

    def test_pauses_while_degraded_and_resumes_after_recovery(self):
        engine, survivors = fragmented_engine()
        rebalancer = Rebalancer(engine, EAGER)
        event = FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(5))
        engine.apply_fault(event)
        assert engine.degraded
        report = rebalancer.run_cycle()
        assert report.paused
        assert report.pause_reason == "degraded"
        assert report.scanned == 0 and report.applied == 0
        assert rebalancer.paused_cycles == 1
        engine.apply_fault(
            FaultEvent(time=1, action=FaultAction.RECOVER, target=FaultTarget.node(5))
        )
        assert not engine.degraded
        resumed = rebalancer.run_cycle()
        assert not resumed.paused
        assert resumed.scanned > 0

    def test_pauses_while_repairs_are_in_flight(self):
        engine, _ = fragmented_engine()
        rebalancer = Rebalancer(engine, EAGER)
        report = rebalancer.run_cycle(repair_in_flight=True)
        assert report.paused
        assert report.pause_reason == "repair_in_flight"
        stats = rebalancer.stats()
        assert stats["cycles"] == 1
        assert stats["paused_cycles"] == 1

    def test_fragmentation_index_bounds_and_sensitivity(self):
        engine, _ = fragmented_engine()
        pristine = EmbeddingEngine(tight_network(), "MBBE", seed=0)
        # Even residuals (nothing reserved) score 0; any load skews it up.
        assert fragmentation_index(pristine) == pytest.approx(0.0)
        skewed = fragmentation_index(engine)
        assert 0.0 < skewed < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_moves"):
            RebalanceConfig(max_moves=-1)
        with pytest.raises(ValueError, match="candidates"):
            RebalanceConfig(candidates=0)
        with pytest.raises(ValueError, match="min_gain"):
            RebalanceConfig(min_gain=-0.1)
        with pytest.raises(ValueError, match="cooldown"):
            RebalanceConfig(cooldown=-2)
        with pytest.raises(ValueError, match="interval"):
            RebalanceConfig(interval=0)
        with pytest.raises(ValueError, match="interval"):
            RebalanceConfig(interval=0.5)

    def test_stats_block_carries_engine_totals(self):
        engine, _ = fragmented_engine()
        rebalancer = Rebalancer(engine, EAGER)
        rebalancer.run_cycle()
        stats = rebalancer.stats()
        for key in REBALANCE_COUNTER_KEYS:
            assert stats[key] == engine.rebalance_counters[key]
        assert stats["cycles"] == 1
        assert 0.0 <= stats["fragmentation"] < 1.0


# -- durability: migrations replay and tail like any other record -----------------


class TestRebalanceDurability:
    def test_wal_replay_and_standby_reproduce_migrated_state(self, tmp_path):
        network = tight_network(seed=9)
        wal_path = shard_wal_path(str(tmp_path), DEFAULT_NETWORK_ID)
        engine = EmbeddingEngine(network, "MBBE", seed=9)
        engine.attach_wal_file(wal_path, network_id=DEFAULT_NETWORK_ID)
        standby = StandbyEngine(network, "MBBE", wal_path, seed=9)

        fill_and_churn(engine, make_requests(network, 60, seed=109))
        rebalancer = Rebalancer(engine, EAGER)
        applied = 0
        for _ in range(8):
            applied += rebalancer.run_cycle().applied
            if applied:
                break
        assert applied >= 1
        assert engine.wal is not None
        engine.wal.sync()

        restored, _ = EmbeddingEngine.restore(network, make_solver("MBBE"), wal_path, seed=9)
        assert restored.ledger_fingerprint() == engine.ledger_fingerprint()
        assert restored.rebalance_counters == engine.rebalance_counters

        standby.poll()
        promoted = standby.promote(attach_writer=False)
        assert promoted.ledger_fingerprint() == engine.ledger_fingerprint()
        assert promoted.rebalance_counters == engine.rebalance_counters
        engine.detach_wal()


# -- determinism: same seed, same decisions ---------------------------------------


class TestDecisionIdentity:
    def test_identically_seeded_rebalancers_make_identical_cycles(self):
        first_engine, _ = fragmented_engine(seed=3)
        second_engine, _ = fragmented_engine(seed=3)
        first = Rebalancer(first_engine, EAGER)
        second = Rebalancer(second_engine, EAGER)
        for _ in range(5):
            a, b = first.run_cycle(), second.run_cycle()
            assert a.to_dict() == b.to_dict()
            assert first_engine.ledger_fingerprint() == second_engine.ledger_fingerprint()

    def test_online_simulator_cycle_matches_direct_rebalancer(self):
        network = tight_network(seed=3)
        engine = EmbeddingEngine(network, make_solver("MBBE"))
        tick = ShardTick(engine, rebalance=EAGER)
        shadow = EmbeddingEngine(tight_network(seed=3), make_solver("MBBE"))
        requests = make_requests(network, 40, seed=103)
        tick.step(submits=[(request, request.seed) for request in requests])
        for request in requests:
            shadow.submit(request, rng=request.seed)
        departing = list(engine.active_ids())[::2]
        tick.step(releases=departing)
        for rid in departing:
            shadow.release(rid)
        direct = Rebalancer(shadow, EAGER)
        for _ in range(4):
            ((report, _),) = tick.step(cycles=1).cycles
            assert report.to_dict() == direct.run_cycle().to_dict()
        assert engine.ledger_fingerprint() == shadow.ledger_fingerprint()


# -- the wire: verb, stats, pump, churn, retries ----------------------------------


def service_network(seed: int = 17) -> CloudNetwork:
    cfg = NetworkConfig(
        size=30, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
        vnf_capacity=2.0, link_capacity=2.0,
    )
    return generate_network(cfg, rng=seed)


def make_workload(network, n: int, *, seed: int = 11):
    """n submit tuples (rid, dag, src, dst, rate, solver_seed)."""
    gen = as_generator(seed)
    out = []
    for rid in range(n):
        dag = generate_dag_sfc(SfcConfig(size=3), 6, rng=gen)
        src, dst = (int(v) for v in gen.choice(network.num_nodes, size=2, replace=False))
        out.append((rid, dag, src, dst, 1.0, int(gen.integers(2**31))))
    return out


async def churny_fill(client: ServiceClient, network, n: int, *, seed: int = 11):
    """Fill-then-churn over the wire; returns the surviving ids."""
    acked = []
    for rid, dag, src, dst, rate, s in make_workload(network, n, seed=seed):
        outcome = await client.submit(rid, dag, src, dst, rate=rate, seed=s)
        if outcome.accepted:
            acked.append(rid)
    for rid in acked[::2]:
        await client.release(rid)
    return [rid for rid in acked if rid not in set(acked[::2])]


class TestServiceRebalance:
    def test_rebalance_verb_runs_a_cycle_and_inspect_does_not(self):
        network = service_network()

        async def drive():
            async with EmbeddingServer(network, ServiceConfig()) as server:
                host, port = server.address
                client = await ServiceClient.connect(host, port)
                await churny_fill(client, network, 20)
                cycled = await client.rebalance()
                inspected = await client.rebalance(inspect=True)
                stats = await client.stats()
                await client.close()
            return cycled, inspected, stats

        cycled, inspected, stats = run(drive())
        assert cycled["type"] == "rebalanced"
        assert cycled["cycle"]["cycle"] == 0
        assert not cycled["cycle"]["paused"]
        assert cycled["cycle"]["scanned"] > 0
        assert cycled["rebalance"]["cycles"] == 1
        # Inspection reports totals without enqueuing a cycle.
        assert inspected["cycle"] is None
        assert inspected["rebalance"]["cycles"] == 1
        shard = stats["shards"][DEFAULT_NETWORK_ID]
        assert shard["rebalance"]["cycles"] == 1
        assert "fragmentation" in shard["rebalance"]

    def test_verb_cycle_pauses_while_degraded_and_resumes(self):
        network = service_network(seed=23)

        async def drive():
            async with EmbeddingServer(network, ServiceConfig()) as server:
                host, port = server.address
                client = await ServiceClient.connect(host, port)
                await churny_fill(client, network, 16, seed=5)
                engine = server.shard_tick().engine
                engine.apply_fault(
                    FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(3))
                )
                paused = await client.rebalance()
                engine.apply_fault(
                    FaultEvent(
                        time=1, action=FaultAction.RECOVER, target=FaultTarget.node(3)
                    )
                )
                resumed = await client.rebalance()
                stats = await client.stats()
                await client.close()
            return paused, resumed, stats

        paused, resumed, stats = run(drive())
        assert paused["cycle"]["paused"]
        assert paused["cycle"]["pause_reason"] == "degraded"
        assert not resumed["cycle"]["paused"]
        assert stats["shards"][DEFAULT_NETWORK_ID]["rebalance"]["paused_cycles"] >= 1

    def test_background_pump_runs_cycles(self):
        """Timer cycles run every ``interval`` steps; one sequential submit
        or release is one step, and a stats read is none."""
        network = service_network(seed=29)
        config = ServiceConfig(
            rebalance=RebalanceConfig(interval=3, min_gain=0.001, cooldown=1),
        )

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                client = await ServiceClient.connect(host, port)
                await churny_fill(client, network, 16, seed=7)
                stats = await client.stats()
                await client.close()
            return stats["shards"][DEFAULT_NETWORK_ID]

        shard = run(drive())
        # Every submit and every release (all succeed) was its own step.
        steps = shard["counters"]["dispatched"] + shard["counters"]["departed"]
        # Cycles run in the steps at now = 3, 6, ... (now counts from 0).
        assert shard["rebalance"]["cycles"] == (steps - 1) // 3 >= 2

    def test_slow_timer_cycles_do_not_starve_submits(self, monkeypatch):
        """A slow cycle cannot pile up a backlog: the timer counts steps, so
        at most one timer cycle runs per step, and every submit is still
        acknowledged."""
        network = service_network(seed=31)
        config = ServiceConfig(rebalance=RebalanceConfig(interval=1))
        slow_cycles = 0
        run_cycle = Rebalancer.run_cycle

        def slow_run_cycle(self, *args, **kwargs):
            nonlocal slow_cycles
            slow_cycles += 1
            time.sleep(0.05)
            return run_cycle(self, *args, **kwargs)

        monkeypatch.setattr(Rebalancer, "run_cycle", slow_run_cycle)

        async def drive():
            async with EmbeddingServer(network, config) as server:
                client = await ServiceClient.connect(*server.address)
                try:
                    for rid, dag, src, dst, rate, s in make_workload(network, 10, seed=13):
                        await asyncio.wait_for(
                            client.submit(rid, dag, src, dst, rate=rate, seed=s), 5
                        )
                    return slow_cycles
                finally:
                    await client.close()

        assert run(drive()) == 10 - 1  # one per step after the first


    def test_timed_wakeups_never_drop_a_queued_item(self):
        """With a timer cycle due on every step, every submit and release
        still gets a reply, concurrent releases included."""
        network = service_network(seed=43)
        config = ServiceConfig(rebalance=RebalanceConfig(interval=1))
        workload = make_workload(network, 24, seed=17)

        async def drive():
            async with EmbeddingServer(network, config) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    outcomes = []
                    for rid, dag, src, dst, rate, s in workload:
                        outcomes.append(
                            await asyncio.wait_for(
                                client.submit(rid, dag, src, dst, rate=rate, seed=s), 5
                            )
                        )
                    accepted = [o.request_id for o in outcomes if o.accepted]
                    released = await asyncio.wait_for(
                        asyncio.gather(*(client.release(rid) for rid in accepted)), 5
                    )
                    stats = await client.stats()
            return outcomes, released, stats

        outcomes, released, stats = run(drive())
        assert len(outcomes) == len(workload)
        assert released and all(released)
        shard = stats["shards"][DEFAULT_NETWORK_ID]
        assert shard["active"] == 0
        assert shard["rebalance"]["cycles"] > 0


class TestLoadgenChurn:
    def test_churn_fraction_releases_early(self):
        network = service_network(seed=31)
        trace = generate_trace(
            steps=20, n_nodes=network.num_nodes, n_vnf_types=6,
            sfc=SfcConfig(size=3), arrival_probability=0.9, mean_hold=1000.0,
            rng=13,
        )

        async def drive(churn):
            async with EmbeddingServer(network, ServiceConfig()) as server:
                host, port = server.address
                client = await ServiceClient.connect(host, port)
                # release=False: only the churned share ever departs.
                report = await run_load(
                    client, trace, tick_s=0.0, release=False, churn=churn, rng=41
                )
                await client.close()
            return report

        churned = run(drive(1.0))
        untouched = run(drive(0.0))
        assert churned.accepted > 0
        assert churned.churned == churned.accepted
        assert churned.released == churned.churned
        assert untouched.churned == 0
        assert untouched.released == 0
        assert untouched.to_dict()["churned"] == 0

    def test_churn_fraction_is_validated(self):
        trace = generate_trace(
            steps=2, n_nodes=4, n_vnf_types=2, sfc=SfcConfig(size=2), rng=1
        )
        with pytest.raises(ConfigurationError, match="churn"):
            run(run_load(None, trace, churn=1.5))
