"""The embedding service: protocol, ledger, checkpoints, and e2e.

The end-to-end tests run the real asyncio server in-process (ephemeral
loopback port, inline solves) and drive it with the real client. The
central property: the server's accept/reject decisions and costs are
identical to replaying the same requests, in the server's decision order,
through an in-process :class:`~repro.engine.core.EmbeddingEngine`.

Plain ``asyncio.run`` per test — no asyncio pytest plugin is assumed.
"""

import asyncio

import pytest

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.engine import (
    DEFAULT_NETWORK_ID,
    EmbeddingEngine,
    EmbeddingRequest,
    WalWriter,
    network_fingerprint,
    read_wal,
    restore_shards,
    shard_wal_path,
)
from repro.exceptions import (
    CapacityError,
    ConfigurationError,
    ProtocolError,
    ServiceError,
    WalError,
)
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.network.reservations import Reservation, ReservationLedger
from repro.network.state import ResidualState
from repro.service import (
    EmbeddingServer,
    ServiceClient,
    ServiceConfig,
    SubmitIntent,
)
from repro.service import protocol
from repro.service.loadgen import percentile
from repro.sfc.builder import DagSfcBuilder
from repro.sfc.generator import generate_dag_sfc
from repro.solvers.registry import make_solver
from repro.utils.rng import as_generator
from repro.wal import records as wal_records

from .conftest import build_line_graph


def run(coro):
    return asyncio.run(coro)


def service_network(seed: int = 17) -> CloudNetwork:
    cfg = NetworkConfig(
        size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
        vnf_capacity=4.0, link_capacity=4.0,
    )
    return generate_network(cfg, rng=seed)


def tight_network() -> CloudNetwork:
    """0-1-2 line where one unit-rate request saturates everything."""
    net = CloudNetwork(build_line_graph(3, price=1.0, capacity=1.0))
    net.deploy(1, 1, price=5.0, capacity=1.0)
    return net


def single_vnf_dag():
    return DagSfcBuilder().single(1).build()


# -- protocol ---------------------------------------------------------------------


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"type": "stats", "msg_id": 3}
        assert protocol.decode_message(protocol.encode_message(message)) == message

    def test_decode_rejects_malformed(self):
        with pytest.raises(ProtocolError, match="invalid JSON"):
            protocol.decode_message(b"{nope\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_message(b"[1,2]\n")
        with pytest.raises(ProtocolError, match="'type'"):
            protocol.decode_message(b'{"msg_id":1}\n')

    def test_hello_version_gate(self):
        hello = protocol.hello_message(
            solver="MBBE", n_nodes=4, n_vnf_types=2, network_fingerprint="ab"
        )
        protocol.check_hello(hello)
        with pytest.raises(ProtocolError, match="version"):
            protocol.check_hello({**hello, "version": 999})
        with pytest.raises(ProtocolError, match="peer"):
            protocol.check_hello({**hello, "format": "something/else"})
        with pytest.raises(ProtocolError, match="expected a hello"):
            protocol.check_hello({"type": "stats"})

    def test_submit_roundtrip(self):
        dag = single_vnf_dag()
        message = protocol.submit_message(
            msg_id=7, request_id=42, dag=dag, source=0, dest=2, rate=1.5, seed=9
        )
        intent = protocol.submit_from_message(
            protocol.decode_message(protocol.encode_message(message))
        )
        assert intent == SubmitIntent(
            request_id=42, dag=dag, source=0, dest=2,
            flow=FlowConfig(rate=1.5), seed=9, msg_id=7,
        )

    def test_submit_validation(self):
        dag = single_vnf_dag()
        good = protocol.submit_message(
            msg_id=1, request_id=1, dag=dag, source=0, dest=2
        )
        bad = dict(good)
        del bad["dag"]
        with pytest.raises(ProtocolError, match="malformed submit"):
            protocol.submit_from_message(bad)
        with pytest.raises(ProtocolError, match="rate"):
            protocol.submit_from_message({**good, "rate": 0.0})
        with pytest.raises(ProtocolError, match="malformed submit"):
            protocol.submit_from_message({**good, "dag": {"layers": "zap"}})


# -- reservation ledger -----------------------------------------------------------


class TestReservationLedger:
    def make_ledger(self):
        return ReservationLedger(ResidualState(tight_network()))

    def test_reserve_release_roundtrip(self):
        ledger = self.make_ledger()
        res = Reservation(vnf={(1, 1): 1.0}, links={(0, 1): 1.0, (1, 2): 1.0}, cost=7.0)
        ledger.reserve(5, res)
        assert ledger.is_active(5)
        assert list(ledger.active_ids()) == [5]
        assert ledger.reservation(5) == res
        assert len(ledger) == 1
        assert ledger.release(5) == res
        assert ledger.state.link_used(0, 1) == 0.0
        assert len(ledger) == 0

    def test_duplicate_reserve_raises(self):
        ledger = self.make_ledger()
        res = Reservation(vnf={}, links={(0, 1): 0.5}, cost=1.0)
        ledger.reserve(1, res)
        with pytest.raises(ConfigurationError, match="already active"):
            ledger.reserve(1, res)

    def test_failed_reserve_rolls_back_atomically(self):
        ledger = self.make_ledger()
        # The link claim fits, the VNF claim does not: nothing may leak.
        doomed = Reservation(vnf={(1, 1): 2.0}, links={(0, 1): 1.0}, cost=1.0)
        with pytest.raises(CapacityError):
            ledger.reserve(1, doomed)
        assert not ledger.is_active(1)
        assert ledger.state.link_used(0, 1) == 0.0
        # The full capacity is still claimable afterwards.
        ledger.reserve(2, Reservation(vnf={(1, 1): 1.0}, links={(0, 1): 1.0}, cost=1.0))

    def test_release_unknown_raises(self):
        with pytest.raises(ConfigurationError, match="not active"):
            self.make_ledger().release(3)


# -- checkpoints ------------------------------------------------------------------


def half_rate_request(request_id: int) -> EmbeddingRequest:
    """0 → VNF 1 on node 1 → 2 at rate 0.5: two of them fill the tight line."""
    return EmbeddingRequest(
        request_id=request_id, dag=single_vnf_dag(), source=0, dest=2,
        flow=FlowConfig(rate=0.5), seed=1,
    )


class TestStateStore:
    def logged_engine(self, network, path):
        engine = EmbeddingEngine(network, "MBBE", seed=3)
        engine.attach_wal_file(path)
        for request_id in (3, 1):
            engine.submit(half_rate_request(request_id), rng=1)
        return engine

    def test_roundtrip(self, tmp_path):
        network = tight_network()
        path = str(tmp_path / "shard.wal")
        engine = self.logged_engine(network, path)
        seq = engine.checkpoint({"submitted": 2})
        engine.detach_wal()
        assert read_wal(path).records[seq].type == wal_records.CHECKPOINT
        restored, leftover = EmbeddingEngine.restore(network, "MBBE", path, seed=3)
        assert leftover == {"submitted": 2.0}
        assert restored.counters == engine.counters
        assert list(restored.active_ids()) == [1, 3]
        assert restored.ledger.reservation(3) == engine.ledger.reservation(3)
        assert restored.ledger.state.link_used(1, 2) == engine.ledger.state.link_used(1, 2)
        assert restored.wal_applied_seq == seq

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "shard.wal")
        self.logged_engine(tight_network(), path).detach_wal()
        other = CloudNetwork(build_line_graph(4, price=1.0, capacity=1.0))
        with pytest.raises(WalError, match="different network"):
            EmbeddingEngine.restore(other, "MBBE", path)

    def test_overcommitted_snapshot_raises(self, tmp_path):
        network = tight_network()
        path = str(tmp_path / "shard.wal")
        engine = self.logged_engine(network, path)
        payload = engine.checkpoint_payload()
        payload["reservations"][0]["links"] = [[0, 1, 99.0]]
        seq = engine.wal.append_record(wal_records.CHECKPOINT, payload)
        engine.detach_wal()
        with pytest.raises(WalError, match=f"seq {seq} over-commits"):
            EmbeddingEngine.restore(network, "MBBE", path)

    def test_header_gate(self, tmp_path):
        path = str(tmp_path / "shard.wal")
        WalWriter(path, header={"format": "elsewhere", "kind": "other"}).close()
        with pytest.raises(WalError, match="engine-wal log"):
            EmbeddingEngine.restore(tight_network(), "MBBE", path)
        network = tight_network()
        newer = wal_records.header_payload(
            network_fingerprint=network_fingerprint(network), solver="MBBE", seed=0
        )
        path = str(tmp_path / "newer.wal")
        WalWriter(path, header={**newer, "version": 2}).close()
        with pytest.raises(WalError, match="unsupported WAL version"):
            EmbeddingEngine.restore(network, "MBBE", path)


# -- loadgen helpers --------------------------------------------------------------


class TestPercentile:
    def test_nearest_rank(self):
        values = tuple(float(v) for v in range(1, 11))
        assert percentile(values, 0.5) == 5.0
        assert percentile(values, 0.95) == 10.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 10.0

    def test_empty_and_bad_q(self):
        assert percentile((), 0.5) != percentile((), 0.5)  # NaN
        with pytest.raises(ConfigurationError):
            percentile((1.0,), 1.5)


# -- end-to-end -------------------------------------------------------------------


def make_workload(network, n: int, *, seed: int = 11):
    """n submit tuples (rid, dag, src, dst, rate, solver_seed)."""
    gen = as_generator(seed)
    out = []
    for rid in range(n):
        dag = generate_dag_sfc(SfcConfig(size=3), 6, rng=gen)
        src, dst = (int(v) for v in gen.choice(network.num_nodes, size=2, replace=False))
        out.append((rid, dag, src, dst, 1.0, int(gen.integers(2**31))))
    return out


class TestServerEndToEnd:
    def test_strict_mode_matches_offline_replay(self):
        """50 concurrent submits == offline simulator in decision order."""
        network = service_network()
        workload = make_workload(network, 50)
        config = ServiceConfig(batch_size=4, queue_limit=128)

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
                    stats = await client.stats()
            return outcomes, stats

        outcomes, stats = run(drive())
        assert len(outcomes) == 50
        assert all(o.decision_index is not None for o in outcomes)
        assert sorted(o.decision_index for o in outcomes) == list(range(50))
        accepted = [o for o in outcomes if o.accepted]
        assert accepted, "workload must accept at least one request"
        assert stats["counters"]["accepted"] == len(accepted)

        # Offline replay in the server's decision order must reproduce every
        # decision and every accepted cost exactly.
        engine = EmbeddingEngine(network, make_solver(config.solver))
        by_rid = {w[0]: w for w in workload}
        for outcome in sorted(outcomes, key=lambda o: o.decision_index):
            rid, dag, src, dst, rate, seed = by_rid[outcome.request_id]
            result = engine.submit(
                EmbeddingRequest(rid, dag, src, dst, FlowConfig(rate=rate)), rng=seed
            )
            assert result.success == outcome.accepted
            if result.success:
                assert result.total_cost == outcome.total_cost
        assert engine.counters["total_cost_accepted"] == pytest.approx(
            sum(o.total_cost for o in accepted)
        )

    def test_queue_overflow_yields_structured_rejections(self):
        network = service_network()
        workload = make_workload(network, 10)
        config = ServiceConfig(queue_limit=2, batch_size=1)

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
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
                    stats = await client.stats()  # server is still healthy
            return outcomes, stats

        outcomes, stats = run(drive())
        assert len(outcomes) == 10
        shed = [o for o in outcomes if o.code == "queue_full"]
        assert shed, "overflow must surface as structured queue_full rejections"
        for o in shed:
            assert not o.accepted
            assert "limit" in o.reason
        assert stats["counters"]["shed_queue_full"] == len(shed)
        decided = [o for o in outcomes if o.code != "queue_full"]
        assert all(o.accepted or o.code in protocol.REJECT_CODES for o in decided)

    def test_duplicate_and_draining_rejections(self):
        network = tight_network()
        config = ServiceConfig()

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    first = await client.submit(7, single_vnf_dag(), 0, 2, seed=1)
                    dup = await client.submit(7, single_vnf_dag(), 0, 2, seed=1)
                    await client.drain()
                    late = await client.submit(8, single_vnf_dag(), 0, 2, seed=1)
            return first, dup, late

        first, dup, late = run(drive())
        assert first.accepted
        assert dup.code == "duplicate_id" and not dup.accepted
        assert late.code == "draining" and not late.accepted

    def test_release_roundtrip_over_the_wire(self):
        network = tight_network()
        config = ServiceConfig()

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    first = await client.submit(1, single_vnf_dag(), 0, 2, seed=1)
                    blocked = await client.submit(2, single_vnf_dag(), 0, 2, seed=1)
                    ok = await client.release(1)
                    again = await client.release(1)
                    second = await client.submit(3, single_vnf_dag(), 0, 2, seed=1)
            return first, blocked, ok, again, second

        first, blocked, ok, again, second = run(drive())
        assert first.accepted
        assert blocked.code == "no_solution"
        assert ok is True
        assert again is False
        assert second.accepted, "released capacity must be reusable"

    def test_malformed_submit_yields_error_reply(self):
        network = tight_network()
        config = ServiceConfig()

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    with pytest.raises(ProtocolError, match="rate"):
                        await client.submit(1, single_vnf_dag(), 0, 2, rate=-1.0)

        run(drive())

    def test_snapshot_without_wal_is_a_structured_error(self):
        network = tight_network()
        config = ServiceConfig()

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    with pytest.raises(ServiceError, match="write-ahead log"):
                        await client.snapshot()
                    # The refusal changes nothing: the server keeps serving.
                    return await client.submit(1, single_vnf_dag(), 0, 2, seed=1)

        assert run(drive()).accepted

    def test_snapshot_restart_resumes_identical_state(self, tmp_path):
        """Restart from the checkpointed log: same reservations, live releases."""
        network = service_network()
        workload = make_workload(network, 8)
        wal_dir = str(tmp_path / "wal")
        config = ServiceConfig(batch_size=4, wal_dir=wal_dir)

        async def first_life():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    outcomes = await asyncio.gather(
                        *(
                            client.submit(rid, dag, src, dst, rate=rate, seed=s)
                            for rid, dag, src, dst, rate, s in workload
                        )
                    )
                    reply = await client.snapshot()
                    assert reply["type"] == "snapshotted"
                fingerprint = server.shard_tick().engine.ledger_fingerprint()
            return outcomes, reply, fingerprint

        outcomes, reply, fingerprint = run(first_life())
        accepted_ids = sorted(o.request_id for o in outcomes if o.accepted)
        assert accepted_ids, "restart test needs at least one accepted request"
        seq = reply["checkpoints"][DEFAULT_NETWORK_ID]
        path = shard_wal_path(wal_dir, DEFAULT_NETWORK_ID)
        assert read_wal(path).records[seq].type == wal_records.CHECKPOINT

        engines, leftovers = restore_shards(
            {DEFAULT_NETWORK_ID: network}, config.solver, wal_dir, seed=config.seed
        )
        restored = engines[DEFAULT_NETWORK_ID]
        assert restored.ledger_fingerprint() == fingerprint
        assert list(restored.active_ids()) == accepted_ids
        assert restored.counters["accepted"] == len(accepted_ids)
        assert leftovers[DEFAULT_NETWORK_ID]["submitted"] == len(workload)

        async def second_life():
            async with EmbeddingServer(
                engines, config, transport_counters=leftovers
            ) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    dup = await client.submit(
                        accepted_ids[0], single_vnf_dag(), 0, 2, seed=1
                    )
                    ok = await client.release(accepted_ids[0])
                    stats = await client.stats()
            return dup, ok, stats

        dup, ok, stats = run(second_life())
        assert dup.code == "duplicate_id"
        assert ok is True
        assert stats["counters"]["accepted"] == len(accepted_ids)
        assert stats["counters"]["submitted"] == len(workload) + 1
        assert stats["active"] == len(accepted_ids) - 1

    def test_drain_shutdown_stops_the_server(self):
        network = tight_network()
        config = ServiceConfig()

        async def drive():
            server = EmbeddingServer(network, config)
            host, port = await server.start()
            serve_task = asyncio.create_task(server.serve_until_stopped())
            async with await ServiceClient.connect(host, port) as client:
                reply = await client.drain(shutdown=True)
                assert reply["type"] == "drained"
            await asyncio.wait_for(serve_task, timeout=5.0)

        run(drive())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(batch_size=0)


# -- event-loop offload regressions -----------------------------------------------


class TestAsyncOffload:
    """Snapshot writes and fault repairs must not run on the event loop.

    These guard the RPL701 fixes: each test makes the offloaded operation
    artificially slow and asserts a heartbeat coroutine keeps ticking, which
    fails immediately if the call ever moves back onto the loop. (The suite
    also runs under the runtime sanitizer, which enforces the same property
    at its default threshold.)
    """

    @staticmethod
    async def _heartbeat(stop: "asyncio.Event", interval: float = 0.02) -> float:
        """Worst observed delay beyond the expected sleep, in seconds."""
        loop = asyncio.get_running_loop()
        worst = 0.0
        last = loop.time()
        while not stop.is_set():
            await asyncio.sleep(interval)
            now = loop.time()
            worst = max(worst, now - last - interval)
            last = now
        return worst

    def test_snapshot_write_keeps_the_loop_responsive(self, tmp_path, monkeypatch):
        import time

        network = service_network()
        config = ServiceConfig(wal_dir=str(tmp_path / "wal"))

        async def drive() -> float:
            async with EmbeddingServer(network, config) as server:
                engine = server.shard_tick().engine
                real_checkpoint = engine.checkpoint

                def slow_checkpoint(*args, **kwargs):
                    time.sleep(0.4)  # exaggerate the fsync
                    return real_checkpoint(*args, **kwargs)

                monkeypatch.setattr(engine, "checkpoint", slow_checkpoint)
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    stop = asyncio.Event()
                    beat = asyncio.create_task(self._heartbeat(stop))
                    reply = await client.snapshot()
                    stop.set()
                    worst = await beat
                assert reply["type"] == "snapshotted"
            return worst

        worst = run(drive())
        assert worst < 0.25, (
            f"loop was unresponsive for {worst:.3f}s during snapshot; "
            "the write must happen in a worker thread"
        )

    def test_snapshot_under_load_is_consistent_and_nonblocking(self, tmp_path):
        """Snapshot taken mid-stream parks dispatchers, not the loop."""
        network = service_network()
        workload = make_workload(network, 12)
        wal_dir = str(tmp_path / "wal")
        config = ServiceConfig(batch_size=3, wal_dir=wal_dir)

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    submits = [
                        asyncio.create_task(
                            client.submit(rid, dag, src, dst, rate=rate, seed=s)
                        )
                        for rid, dag, src, dst, rate, s in workload
                    ]
                    reply = await client.snapshot()
                    outcomes = await asyncio.gather(*submits)
                assert reply["type"] == "snapshotted"
            return outcomes

        outcomes = run(drive())
        # every submit got a decision despite the concurrent snapshot...
        assert len(outcomes) == len(workload)
        # ...and the checkpoint agrees with replaying the records before it
        # (a checkpoint that raced a commit would disagree and raise).
        path = shard_wal_path(wal_dir, DEFAULT_NETWORK_ID)
        replayed = EmbeddingEngine(network, config.solver, seed=config.seed)
        for record in read_wal(path).records:
            replayed.apply_wal_record(record)
        assert any(r.type == wal_records.CHECKPOINT for r in read_wal(path).records)
        assert set(replayed.active_ids()) <= {rid for rid, *_ in workload}

    def test_fault_repair_keeps_the_loop_responsive(self, monkeypatch):
        import time

        from repro.engine import EmbeddingEngine
        from repro.faults.model import FaultAction, FaultEvent, FaultTarget

        network = service_network()
        config = ServiceConfig()
        real_apply = EmbeddingEngine.apply_fault

        def slow_apply(engine, event):
            time.sleep(0.4)  # exaggerate the repair-ladder solve
            return real_apply(engine, event)

        monkeypatch.setattr(EmbeddingEngine, "apply_fault", slow_apply)

        async def drive() -> float:
            async with EmbeddingServer(network, config) as server:
                stop = asyncio.Event()
                beat = asyncio.create_task(self._heartbeat(stop))
                server.inject_fault(
                    FaultEvent(
                        time=0,
                        action=FaultAction.FAIL,
                        target=FaultTarget.node(0),
                    )
                )
                await asyncio.sleep(0.55)  # let the fault fold in
                stop.set()
                return await beat

        worst = run(drive())
        assert worst < 0.25, (
            f"loop was unresponsive for {worst:.3f}s during fault repair; "
            "engine.apply_fault must run in a worker thread"
        )
