"""End-to-end chaos: the embedding service under substrate failures.

Runs the real asyncio server in-process with a fault script (or ad-hoc
injected events) and drives it with real clients. The central properties:

* concurrent submits + scripted failures never corrupt the ledger — after
  the dust settles every request is in exactly one terminal state and
  releasing the survivors leaves the server empty;
* repair outcomes reach the submitting connection as structured `notify`
  pushes with the documented status vocabulary;
* while degraded the server sheds with the self-describing code
  ``degraded``, and a lost connection surfaces as the typed
  :class:`~repro.exceptions.ServiceUnavailable`.

Plain ``asyncio.run`` per test — no asyncio pytest plugin is assumed.
"""

import asyncio

import pytest

from repro.config import NetworkConfig, SfcConfig
from repro.exceptions import ServiceUnavailable
from repro.faults.model import (
    FaultAction,
    FaultEvent,
    FaultScript,
    FaultSpec,
    FaultState,
    FaultTarget,
    generate_fault_script,
)
from repro.network.generator import generate_network
from repro.service import EmbeddingServer, ServiceClient, ServiceConfig
from repro.service.protocol import NOTIFY_STATUSES
from repro.sfc.generator import generate_dag_sfc
from repro.utils.rng import as_generator


def run(coro):
    return asyncio.run(coro)


def chaos_network(seed: int = 17):
    cfg = NetworkConfig(
        size=30, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
        vnf_capacity=100.0, link_capacity=100.0,
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


async def step_through_script(client: ServiceClient, script: FaultScript) -> None:
    """Step the shard with releases of an unknown id (one no-op step each)
    until its fault script, which runs on the step count, is applied."""
    for _ in range(script.events[-1].time + 1):
        if (await client.stats())["faults"]["chaos_complete"]:
            return
        assert not await client.release(10**6)
    assert (await client.stats())["faults"]["chaos_complete"]


def drain_notifications(client: ServiceClient) -> list[dict]:
    out = []
    while not client.notifications.empty():
        out.append(client.notifications.get_nowait())
    return out


class TestChaosEndToEnd:
    def test_scripted_chaos_never_corrupts_the_ledger(self):
        """≥30 concurrent in-flight submits under a live fault script."""
        network = chaos_network()
        spec = FaultSpec(
            horizon=30, node_mtbf=25.0, link_mtbf=12.0, instance_mtbf=20.0,
            node_mttr=4.0, link_mttr=4.0, instance_mttr=4.0,
        )
        script = generate_fault_script(spec, network, rng=23)
        assert len(script) > 0
        workload = make_workload(network, 36)
        config = ServiceConfig(
            batch_size=4, queue_limit=128,
            fault_script=script,
        )

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    outcomes = await asyncio.gather(
                        *(
                            client.submit(rid, dag, src, dst, rate=rate, seed=s)
                            for rid, dag, src, dst, rate, s in workload
                        )
                    )
                    await step_through_script(client, script)
                    # Each step's notifications precede its reply.
                    mid_stats = await client.stats()
                    notes = drain_notifications(client)
                    evicted = {
                        n["request_id"] for n in notes if n["status"] == "evicted"
                    }
                    released = {}
                    for outcome in outcomes:
                        if outcome.accepted and outcome.request_id not in evicted:
                            released[outcome.request_id] = await client.release(
                                outcome.request_id
                            )
                    notes.extend(drain_notifications(client))
                    final = await client.drain()
            return outcomes, mid_stats, notes, evicted, released, final

        outcomes, mid_stats, notes, evicted, released, final = run(drive())

        accepted = {o.request_id for o in outcomes if o.accepted}
        assert len(outcomes) == 36
        assert len(accepted) >= 20, "workload must mostly be admitted"
        assert mid_stats["counters"]["faults_injected"] > 0

        # Notifications: documented vocabulary only, only for admitted
        # requests, and eviction is terminal — nothing follows it.
        assert notes, "the script must have damaged at least one embedding"
        seen_after_evict: set[int] = set()
        for note in notes:
            assert note["status"] in NOTIFY_STATUSES
            assert note["request_id"] in accepted
            assert note["request_id"] not in seen_after_evict
            if note["status"] == "evicted":
                seen_after_evict.add(note["request_id"])
        assert evicted == {
            c for c in seen_after_evict
        }, "eviction notifications must match the evicted set"

        # Exactly one terminal state per accepted request: released by us
        # (survivor) or evicted by the ladder — never both, never neither.
        for rid in accepted:
            if rid in evicted:
                assert rid not in released or released[rid] is False
            else:
                assert released[rid] is True
        counters = final["counters"]
        assert counters["evictions"] == len(evicted)
        assert final["active"] == 0, "drain must leave the ledger empty"
        repairs = counters["repairs_rerouted"] + counters["repairs_reembedded"]
        assert repairs + counters["evictions"] > 0

        # Degradation telemetry made it to the stats surface.
        assert "faults" in mid_stats
        assert mid_stats["faults"]["tracked_embeddings"] >= 0

    def test_repair_notices_go_out_only_once_durable(self, tmp_path, monkeypatch):
        """A ``notify`` is written only after the step's WAL sync, so a
        kill -9 can never leave a client holding a notice restore loses."""
        network = chaos_network(seed=21)
        workload = make_workload(network, 6, seed=2)
        pending_at_notify = []
        real_write = EmbeddingServer._write_locked

        async def spying_write(self, writer, lock, message):
            if message.get("type") == "notify":
                pending_at_notify.append(self.shard_tick().engine.wal.pending_count)
            await real_write(self, writer, lock, message)

        monkeypatch.setattr(EmbeddingServer, "_write_locked", spying_write)

        async def drive():
            config = ServiceConfig(wal_dir=str(tmp_path))
            async with EmbeddingServer(network, config) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    outcomes = [
                        await client.submit(rid, dag, src, dst, rate=rate, seed=s)
                        for rid, dag, src, dst, rate, s in workload
                    ]
                    victim = next(w for w, o in zip(workload, outcomes) if o.accepted)
                    # Its source node dies: the ladder evicts and notifies.
                    server.inject_fault(
                        FaultEvent(
                            time=0, action=FaultAction.FAIL, target=FaultTarget.node(victim[2])
                        )
                    )
                    first = await asyncio.wait_for(client.notifications.get(), 5.0)
                    await client.stats()  # later notices precede the stats reply
                    return [first, *drain_notifications(client)]

        notes = run(drive())
        assert notes, "the fault must have damaged at least one embedding"
        assert pending_at_notify == [0] * len(notes)

    def test_stats_reflect_everything_queued_before_them(self):
        network = chaos_network(seed=23)
        link = next(iter(network.graph.links()))

        async def drive():
            async with EmbeddingServer(network, ServiceConfig()) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    server.inject_fault(
                        FaultEvent(
                            time=0, action=FaultAction.FAIL, target=FaultTarget.link(*link.key)
                        )
                    )
                    # No polling: the stats hold parks behind the fault's step.
                    return await client.stats()

        stats = run(drive())
        assert stats["faults"]["degraded"]
        assert stats["counters"]["faults_injected"] == 1

    def test_chaos_complete_means_every_scripted_event_is_applied(self):
        """Once the stats say ``chaos_complete``, they already show the dead
        elements of the whole script, folded offline."""
        network = chaos_network(seed=19)
        spec = FaultSpec(
            horizon=20, node_mtbf=15.0, link_mtbf=8.0, instance_mtbf=10.0,
            node_mttr=30.0, link_mttr=30.0, instance_mttr=30.0,
        )
        # Cut the trailing recoveries so the script ends with dead elements.
        full = generate_fault_script(spec, network, rng=29)
        script = FaultScript(
            events=tuple(e for e in full if e.time < spec.horizon), horizon=spec.horizon
        )
        offline = FaultState()
        for event in script:
            offline.apply(event)
        assert offline.any_dead
        workload = make_workload(network, 12, seed=3)
        config = ServiceConfig(
            batch_size=4, queue_limit=64, fault_script=script
        )

        async def drive():
            async with EmbeddingServer(network, config) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    await asyncio.gather(
                        *(
                            client.submit(rid, dag, src, dst, rate=rate, seed=s)
                            for rid, dag, src, dst, rate, s in workload
                        )
                    )
                    await step_through_script(client, script)
                    return await client.stats()

        faults = run(drive())["faults"]
        assert faults["chaos_complete"]
        assert faults["dead_nodes"] == len(offline.dead_nodes)
        assert faults["dead_links"] == len(offline.dead_links)
        assert faults["dead_instances"] == len(offline.dead_instances)

    def test_degraded_admission_sheds_with_structured_code(self):
        network = chaos_network(seed=3)
        config = ServiceConfig(
            batch_size=1, queue_limit=6, degraded_queue_factor=0.34,
        )
        workload = make_workload(network, 8, seed=5)

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    # Kill one link; wait until the dispatcher folded it in.
                    server.inject_fault(
                        FaultEvent(
                            time=0,
                            action=FaultAction.FAIL,
                            target=FaultTarget.link(0, 1),
                        )
                    )
                    for _ in range(100):
                        stats = await client.stats()
                        if stats["faults"]["degraded"]:
                            break
                        await asyncio.sleep(0.02)
                    assert stats["faults"]["degraded"]
                    # Park the dispatcher at a hold so the burst backs up.
                    release = asyncio.Event()
                    await server._barrier(release)
                    submits = asyncio.gather(
                        *(
                            client.submit(rid, dag, src, dst, rate=rate, seed=s)
                            for rid, dag, src, dst, rate, s in workload
                        )
                    )
                    await asyncio.sleep(0.1)
                    release.set()
                    outcomes = await submits
                    shed = [o for o in outcomes if o.code == "degraded"]
                    # Recovery lifts the tightened limit again.
                    server.inject_fault(
                        FaultEvent(
                            time=0,
                            action=FaultAction.RECOVER,
                            target=FaultTarget.link(0, 1),
                        )
                    )
                    for _ in range(100):
                        stats = await client.stats()
                        if not stats["faults"]["degraded"]:
                            break
                        await asyncio.sleep(0.02)
                    assert not stats["faults"]["degraded"]
                    final = await client.stats()
            return outcomes, shed, final

        outcomes, shed, final = run(drive())
        # With the queue bound tightened to max(1, 6*0.34) = 2, the 8-wide
        # concurrent burst must shed at least one submit as `degraded`.
        assert shed, [o.code for o in outcomes]
        assert all(o.reason for o in shed)
        assert final["counters"]["shed_degraded"] == len(shed)

    def test_connection_loss_surfaces_as_service_unavailable(self):
        network = chaos_network(seed=13)

        async def drive():
            server = EmbeddingServer(network, ServiceConfig())
            host, port = await server.start()
            client = await ServiceClient.connect(host, port)
            await server.stop()
            with pytest.raises(ServiceUnavailable):
                await client.stats()
            await client.close()

        run(drive())
