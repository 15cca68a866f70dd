"""Multi-network (sharded) service: routing, isolation, durability (e2e).

Protocol v2 lets one :class:`~repro.service.EmbeddingServer` serve several
independent substrates, each behind its own
:class:`~repro.engine.core.EmbeddingEngine`. These tests run a real 2-shard
server on a loopback socket and assert the sharding contract: per-shard
request-id spaces, per-shard admission and fault state (chaos on one shard
never degrades another), aggregate + per-shard telemetry, and the sharded
snapshot document round-tripping through :func:`restore_shards`.
"""

import asyncio

import pytest

from repro.config import NetworkConfig, SfcConfig
from repro.engine import RebalanceConfig, restore_shards, state_store
from repro.faults.model import FaultAction, FaultEvent, FaultScript, FaultTarget
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.service import EmbeddingServer, ServiceClient, ServiceConfig
from repro.sfc.generator import generate_dag_sfc
from repro.utils.rng import as_generator


def run(coro):
    return asyncio.run(coro)


def shard_network(seed: int) -> CloudNetwork:
    cfg = NetworkConfig(
        size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
        vnf_capacity=4.0, link_capacity=4.0,
    )
    return generate_network(cfg, rng=seed)


def two_networks() -> dict[str, CloudNetwork]:
    return {"alpha": shard_network(17), "beta": shard_network(23)}


def make_workload(network: CloudNetwork, n: int, *, seed: int = 11):
    """n submit tuples (rid, dag, src, dst, rate, solver_seed)."""
    gen = as_generator(seed)
    out = []
    for rid in range(n):
        dag = generate_dag_sfc(SfcConfig(size=3), 6, rng=gen)
        src, dst = (int(v) for v in gen.choice(network.num_nodes, size=2, replace=False))
        out.append((rid, dag, src, dst, 1.0, int(gen.integers(2**31))))
    return out


async def wait_until(predicate, *, timeout: float = 5.0, interval: float = 0.01):
    """Poll an async predicate until it holds (asserts on timeout)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        if await predicate():
            return
        assert loop.time() < deadline, "condition not reached before timeout"
        await asyncio.sleep(interval)


class TestShardedHello:
    def test_hello_advertises_every_shard(self):
        networks = two_networks()
        config = ServiceConfig()

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    return dict(client.hello)

        hello = run(drive())
        assert hello["version"] == 2
        assert hello["default_network_id"] == "alpha"
        shards = {entry["network_id"]: entry for entry in hello["shards"]}
        assert set(shards) == {"alpha", "beta"}
        for network_id, network in two_networks().items():
            assert shards[network_id]["n_nodes"] == network.num_nodes
            assert (
                shards[network_id]["network_fingerprint"]
                == state_store.network_fingerprint(network)
            )
        # Top-level identity still describes the default shard (v1 clients).
        assert hello["n_nodes"] == shards["alpha"]["n_nodes"]
        assert hello["network_fingerprint"] == shards["alpha"]["network_fingerprint"]


class TestShardedDispatch:
    def test_concurrent_clients_on_disjoint_shards(self):
        """Same request ids on two shards: independent id spaces, both served."""
        networks = two_networks()
        config = ServiceConfig(batch_size=4, queue_limit=128)
        workloads = {
            network_id: make_workload(network, 20, seed=seed)
            for (network_id, network), seed in zip(networks.items(), (11, 12))
        }

        async def drive_shard(host, port, network_id):
            async with await ServiceClient.connect(host, port) as client:
                return await asyncio.gather(
                    *(
                        client.submit(
                            rid, dag, src, dst, rate=rate, seed=s,
                            network_id=network_id,
                        )
                        for rid, dag, src, dst, rate, s in workloads[network_id]
                    )
                )

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                per_shard = dict(
                    zip(
                        workloads,
                        await asyncio.gather(
                            *(drive_shard(host, port, nid) for nid in workloads)
                        ),
                    )
                )
                async with await ServiceClient.connect(host, port) as client:
                    stats = await client.stats()
            return per_shard, stats

        per_shard, stats = run(drive())
        for network_id, outcomes in per_shard.items():
            accepted = [o for o in outcomes if o.accepted]
            assert accepted, f"shard {network_id} must accept at least one request"
            # No duplicate_id rejections: id spaces are per shard.
            assert all(o.code != "duplicate_id" for o in outcomes)
            shard_stats = stats["shards"][network_id]
            assert shard_stats["counters"]["accepted"] == len(accepted)
            assert shard_stats["counters"]["submitted"] == len(outcomes)
            assert shard_stats["active"] == len(accepted)
        # The aggregate is the sum of the per-shard splits.
        assert stats["counters"]["accepted"] == sum(
            stats["shards"][nid]["counters"]["accepted"] for nid in per_shard
        )
        assert stats["active"] == sum(
            stats["shards"][nid]["active"] for nid in per_shard
        )

    def test_default_shard_when_network_id_omitted(self):
        networks = two_networks()
        config = ServiceConfig()
        workload = make_workload(networks["alpha"], 4)

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    for rid, dag, src, dst, rate, s in workload:
                        await client.submit(rid, dag, src, dst, rate=rate, seed=s)
                    return await client.stats()

        stats = run(drive())
        assert stats["shards"]["alpha"]["counters"]["submitted"] == len(workload)
        assert stats["shards"]["beta"]["counters"]["submitted"] == 0

    def test_unknown_network_is_a_structured_rejection(self):
        networks = two_networks()
        config = ServiceConfig()
        (rid, dag, src, dst, rate, s) = make_workload(networks["alpha"], 1)[0]

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    outcome = await client.submit(
                        rid, dag, src, dst, rate=rate, seed=s, network_id="gamma"
                    )
                    released = await client.release(0, network_id="gamma")
                    stats = await client.stats()
            return outcome, released, stats

        outcome, released, stats = run(drive())
        assert not outcome.accepted
        assert outcome.code == "unknown_network"
        assert released is False
        # The miss is not charged to any shard's counters.
        for network_id in networks:
            assert stats["shards"][network_id]["counters"]["submitted"] == 0


    def test_one_long_lived_task_per_shard_with_every_timer_on(self, tmp_path):
        """Chaos, timer rebalancing and standbys all run inside the shard
        dispatchers: the server adds exactly one task per shard."""
        networks = two_networks()
        script = FaultScript(
            events=(FaultEvent(time=1, action=FaultAction.FAIL, target=FaultTarget.node(2)),),
            horizon=5,
        )
        config = ServiceConfig(
            fault_script=script, chaos_network_id="beta",
            wal_dir=str(tmp_path / "wal"), standby=True,
            rebalance=RebalanceConfig(interval=1),
        )

        async def drive():
            before = asyncio.all_tasks()
            async with EmbeddingServer(networks, config) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    # The script runs on beta's step count: two steps (no-op
                    # releases) reach its event at step 1.
                    for _ in range(2):
                        await client.release(0, network_id="beta")
                    client_tasks = asyncio.all_tasks() - before
                    added = [t.get_coro().__qualname__ for t in client_tasks]
                    stats = await client.stats()
            return added, stats

        added, stats = run(drive())
        # The dispatchers await their queues, never wait_for: no task but
        # one dispatcher per shard and the one connection's two ends exists.
        assert sorted(added) == sorted(
            ["EmbeddingServer._dispatch_loop"] * len(networks)
            + ["EmbeddingServer._on_connection", "ServiceClient._read_loop"]
        )
        assert stats["faults"]["chaos_complete"]
        assert stats["shards"]["beta"]["faults"]["degraded"]
        assert stats["shards"]["beta"]["rebalance"]["cycles"] >= 1


class TestShardFaultIsolation:
    def test_fault_on_one_shard_leaves_the_other_undegraded(self):
        networks = two_networks()
        config = ServiceConfig(batch_size=4, degraded_queue_factor=0.5)
        workload = make_workload(networks["alpha"], 6)

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    server.inject_fault(
                        FaultEvent(
                            time=0,
                            action=FaultAction.FAIL,
                            target=FaultTarget.node(0),
                        ),
                        network_id="beta",
                    )

                    async def beta_degraded():
                        stats = await client.stats()
                        return stats["shards"]["beta"]["faults"]["degraded"]

                    await wait_until(beta_degraded)
                    stats = await client.stats()
                    # The healthy shard still serves normally.
                    outcomes = [
                        await client.submit(
                            rid, dag, src, dst, rate=rate, seed=s, network_id="alpha"
                        )
                        for rid, dag, src, dst, rate, s in workload
                    ]
                    degraded_any = server.degraded
            return stats, outcomes, degraded_any

        stats, outcomes, degraded_any = run(drive())
        assert stats["shards"]["beta"]["faults"]["degraded"] is True
        assert stats["shards"]["alpha"]["faults"]["degraded"] is False
        assert stats["faults"]["degraded"] is True  # aggregate: any shard
        assert degraded_any is True
        assert any(o.accepted for o in outcomes)
        assert all(o.code != "degraded" for o in outcomes)

    def test_recovery_clears_the_aggregate_flag(self):
        networks = two_networks()
        config = ServiceConfig()

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    target = FaultTarget.node(1)
                    server.inject_fault(
                        FaultEvent(time=0, action=FaultAction.FAIL, target=target),
                        network_id="beta",
                    )

                    async def degraded():
                        return (await client.stats())["faults"]["degraded"]

                    await wait_until(degraded)
                    server.inject_fault(
                        FaultEvent(time=1, action=FaultAction.RECOVER, target=target),
                        network_id="beta",
                    )

                    async def recovered():
                        return not (await client.stats())["faults"]["degraded"]

                    await wait_until(recovered)
                    return await client.stats()

        stats = run(drive())
        assert stats["shards"]["beta"]["counters"]["faults_injected"] == 1
        assert stats["shards"]["beta"]["counters"]["recoveries"] == 1
        assert stats["shards"]["alpha"]["counters"]["faults_injected"] == 0


class TestShardedDurability:
    def test_sharded_snapshot_roundtrip(self, tmp_path):
        networks = two_networks()
        wal_dir = str(tmp_path / "wal")
        config = ServiceConfig(batch_size=4, wal_dir=wal_dir)
        workloads = {
            "alpha": make_workload(networks["alpha"], 8, seed=11),
            "beta": make_workload(networks["beta"], 8, seed=12),
        }

        async def first_life():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    accepted = {nid: [] for nid in networks}
                    for network_id, workload in workloads.items():
                        for rid, dag, src, dst, rate, s in workload:
                            outcome = await client.submit(
                                rid, dag, src, dst, rate=rate, seed=s,
                                network_id=network_id,
                            )
                            if outcome.accepted:
                                accepted[network_id].append(rid)
                    reply = await client.snapshot()
                    assert reply["type"] == "snapshotted"
                pre_states = {
                    network_id: server.shard_tick(network_id).engine.checkpoint_payload()
                    for network_id in networks
                }
            return accepted, reply, pre_states

        accepted, reply, pre_states = run(first_life())
        assert all(accepted[nid] for nid in networks), "both shards must accept"
        assert set(reply["checkpoints"]) == set(networks)

        engines, leftovers = restore_shards(networks, config.solver, wal_dir)
        assert set(leftovers) == set(networks)
        for network_id in networks:
            assert leftovers[network_id]["submitted"] == len(workloads[network_id])
            restored = engines[network_id]
            assert restored.wal_applied_seq == reply["checkpoints"][network_id]
            assert restored.checkpoint_payload() == pre_states[network_id]

        async def second_life():
            async with EmbeddingServer(
                engines, config, transport_counters=leftovers
            ) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    # Live releases against the restored state on both shards.
                    for network_id, rids in accepted.items():
                        for rid in rids:
                            assert await client.release(rid, network_id=network_id)
                    return await client.stats()

        stats = run(second_life())
        for network_id in networks:
            shard_stats = stats["shards"][network_id]
            assert shard_stats["active"] == 0
            assert shard_stats["counters"]["departed"] == len(accepted[network_id])
            # Transport counters survived the restart.
            assert shard_stats["counters"]["submitted"] == len(workloads[network_id])

    def test_snapshot_restore_rejects_mismatched_shard_set(self, tmp_path):
        networks = two_networks()
        wal_dir = str(tmp_path / "wal")
        config = ServiceConfig(wal_dir=wal_dir)

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    await client.snapshot()

        run(drive())
        from repro.exceptions import WalError

        # Each log's header names its substrate: swapping the shards' networks
        # is refused before anything is replayed.
        with pytest.raises(WalError, match="different network"):
            restore_shards(
                {"alpha": networks["beta"], "beta": networks["alpha"]}, "MBBE", wal_dir
            )
        # A log for a shard that is not configured holds acknowledged state:
        # restoring without it is refused, naming both shard sets.
        with pytest.raises(WalError, match="do not match"):
            restore_shards(
                {"alpha": networks["alpha"], "gamma": networks["beta"]}, "MBBE", wal_dir
            )
        with pytest.raises(WalError, match="'beta'"):
            restore_shards({"alpha": networks["alpha"]}, "MBBE", wal_dir)
        # A configured shard without a log of its own starts fresh.
        engines, _ = restore_shards(
            {**networks, "gamma": networks["alpha"]}, "MBBE", wal_dir
        )
        assert list(engines) == ["alpha", "beta", "gamma"]
        assert engines["gamma"].active_count() == 0

    def test_drain_covers_every_shard(self):
        networks = two_networks()
        config = ServiceConfig(batch_size=4)
        workloads = {
            "alpha": make_workload(networks["alpha"], 5, seed=11),
            "beta": make_workload(networks["beta"], 5, seed=12),
        }

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    await asyncio.gather(
                        *(
                            client.submit(
                                rid, dag, src, dst, rate=rate, seed=s,
                                network_id=network_id,
                            )
                            for network_id, workload in workloads.items()
                            for rid, dag, src, dst, rate, s in workload
                        )
                    )
                    drained = await client.drain()
            return drained

        drained = run(drive())
        assert drained["type"] == "drained"
        assert drained["queue_depth"] == 0
        assert set(drained["network_ids"]) == set(networks)
        total = sum(
            drained["shards"][nid]["counters"]["dispatched"] for nid in networks
        )
        assert drained["counters"]["dispatched"] == total == 10
