"""The durability subsystem: WAL codec, crash recovery, standby promotion.

Three layers of guarantees, tested bottom-up:

* the log itself — fingerprint-chained records, torn-tail tolerance,
  sync-before-close discipline (an unsynced record was never promised, a
  synced one must survive);
* recovery — ``EmbeddingEngine.restore`` = the log's last checkpoint +
  deterministic replay of the records after it, asserted to reproduce the
  *exact* state of the engine that wrote the log (the hypothesis property
  checks every prefix, a checkpoint that disagrees with replay raises, and a
  committed log fixture pins the record format byte for byte);
* fail-over — a :class:`StandbyEngine` tailing the primary's log promotes
  into an engine whose next batch of decisions is identical to what a
  never-crashed primary would have produced.
"""

import asyncio
import json
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.faults.repair as repair_module
from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.constraints import ConstraintSet
from repro.constraints.delay import DelayBudgetConstraint
from repro.engine import (
    DEFAULT_NETWORK_ID,
    EmbeddingEngine,
    EmbeddingRequest,
    RebalanceConfig,
    Rebalancer,
    ShardTick,
    StandbyEngine,
    WalWriter,
    read_wal,
    shard_wal_path,
)
from repro.exceptions import ConfigurationError, ServiceError, WalError
from repro.faults.model import FaultAction, FaultEvent, FaultTarget
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.service import EmbeddingServer, ServiceClient, ServiceConfig
from repro.sfc.builder import DagSfcBuilder
from repro.sfc.generator import generate_dag_sfc
from repro.utils.rng import as_generator
from repro.wal import records as wal_records
from repro.wal.log import WalRecord, WalTail, _decode_line, _encode_record, chain_hash
from repro.wal.records import ledger_fingerprint

from .conftest import build_line_graph


def run(coro):
    return asyncio.run(coro)


def engine_network(seed: int = 17) -> CloudNetwork:
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


def line_request(rid: int, *, rate: float = 1.0, seed: int | None = None) -> EmbeddingRequest:
    dag = DagSfcBuilder().single(1).build()
    return EmbeddingRequest(
        request_id=rid, dag=dag, source=0, dest=2, flow=FlowConfig(rate=rate), seed=seed
    )


def wal_engine(network: CloudNetwork, path, *, seed: int = 5) -> EmbeddingEngine:
    engine = EmbeddingEngine(network, "MBBE", seed=seed)
    engine.attach_wal_file(str(path))
    return engine


def engine_state(engine: EmbeddingEngine) -> dict:
    """Everything replay must reproduce, canonically encoded.

    The checkpoint payload carries the ledger, the counters, the tracked
    embeddings (embedding, flow, cost, constraints), the dead-element sets,
    the decision/fault sequence counters and the rebalance counters.
    ``migrations_conflicted`` is dropped: a rolled-back move changes no
    state and leaves no record, so only the live engine can count it.
    """
    doc = engine.checkpoint_payload()
    doc["rebalance_counters"].pop("migrations_conflicted")
    doc["ledger_fingerprint"] = engine.ledger_fingerprint()
    return doc


def fail(node: int) -> FaultEvent:
    return FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(node))


def recover(node: int) -> FaultEvent:
    return FaultEvent(time=0, action=FaultAction.RECOVER, target=FaultTarget.node(node))


#: JSON-safe payload values: unicode text, floats of every magnitude, and
#: nesting (the dumps sort nested keys too).
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=16,
)


class TestWalLog:
    @given(
        record_type=st.text(min_size=1, max_size=10),
        payload=st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=6),
    )
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_buffered_line_is_the_canonical_encoding(self, tmp_path, record_type, payload):
        # The writer splices the chain into the body dump instead of dumping
        # the record a second time: the bytes must not change.
        writer = WalWriter(str(tmp_path / "enc.wal"), header={"kind": "test-header"})
        prev = writer.chain
        seq = writer.append_record(record_type, payload)
        line = writer._pending[-1]
        assert line == _encode_record(
            WalRecord(seq=seq, type=record_type, payload=payload, chain=writer.chain)
        )
        decoded = _decode_line(line, prev, seq)
        assert decoded is not None and decoded.payload == payload
        writer.abandon()

    def test_roundtrip_with_verified_chain(self, tmp_path):
        path = str(tmp_path / "shard.wal")
        writer = WalWriter(path, header={"kind": "test-header", "version": 1})
        writer.append_record("commit", {"request_id": 1, "cost": 2.5})
        writer.append_record("release", {"request_id": 1})
        assert writer.pending_count == 2
        writer.sync()
        assert writer.pending_count == 0
        writer.close()

        scan = read_wal(path)
        assert not scan.torn
        assert [r.type for r in scan.records] == ["header", "commit", "release"]
        assert [r.seq for r in scan.records] == [0, 1, 2]
        # The chain is a running fingerprint over the canonical bodies.
        prev = ""
        for record in scan.records:
            assert record.chain == chain_hash(prev, record.body_json())
            prev = record.chain

    def test_append_is_buffered_until_sync(self, tmp_path):
        path = str(tmp_path / "shard.wal")
        writer = WalWriter(path, header={"kind": "test-header"})
        writer.append_record("commit", {"request_id": 7})
        # Nothing past the header reaches disk before an explicit sync().
        assert read_wal(path).last_seq == 0
        writer.sync()
        assert read_wal(path).last_seq == 1
        writer.close()

    def test_close_refuses_to_drop_pending_records(self, tmp_path):
        writer = WalWriter(str(tmp_path / "shard.wal"), header={"kind": "test-header"})
        writer.append_record("commit", {"request_id": 1})
        with pytest.raises(WalError, match="sync"):
            writer.close()
        writer.sync()
        writer.close()
        with pytest.raises(WalError, match="closed"):
            writer.append_record("commit", {"request_id": 2})

    def test_torn_tail_is_tolerated_and_truncated_on_resume(self, tmp_path):
        path = str(tmp_path / "shard.wal")
        writer = WalWriter(path, header={"kind": "test-header"})
        writer.append_record("commit", {"request_id": 1})
        writer.sync()
        writer.close()
        with open(path, "ab") as fh:
            fh.write(b'{"chain":"feed', )  # a crash mid-write leaves half a line

        scan = read_wal(path)
        assert scan.torn
        assert scan.last_seq == 1

        # Resuming a writer truncates the torn tail and continues the chain.
        resumed = WalWriter(path)
        assert resumed.seq == 1
        resumed.append_record("release", {"request_id": 1})
        resumed.sync()
        resumed.close()
        scan = read_wal(path)
        assert not scan.torn
        assert [r.type for r in scan.records] == ["header", "commit", "release"]

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = str(tmp_path / "shard.wal")
        writer = WalWriter(path, header={"kind": "test-header"})
        writer.append_record("commit", {"request_id": 1})
        writer.append_record("release", {"request_id": 1})
        writer.sync()
        writer.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = b'{"garbage": true}\n'
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(WalError, match="seq 1"):
            read_wal(path)

    def test_tampered_chain_raises(self, tmp_path):
        path = str(tmp_path / "shard.wal")
        writer = WalWriter(path, header={"kind": "test-header"})
        writer.append_record("commit", {"request_id": 1, "cost": 3.0})
        writer.sync()
        writer.close()
        lines = open(path, "rb").read().splitlines(keepends=True)
        doc = json.loads(lines[1])
        doc["payload"]["cost"] = 30.0  # rewrite history, keep the old chain
        lines[1] = (json.dumps(doc, sort_keys=True).encode() + b"\n")
        lines[1:] = [lines[1]]
        with open(path, "wb") as fh:
            fh.writelines(lines)
        with pytest.raises(WalError):
            read_wal(path, allow_torn_tail=False)

    def test_tail_consumes_incrementally(self, tmp_path):
        path = str(tmp_path / "shard.wal")
        writer = WalWriter(path, header={"kind": "test-header"})
        tail = WalTail(path)
        assert [r.type for r in tail.poll()] == ["header"]
        writer.append_record("commit", {"request_id": 1})
        assert tail.poll() == []  # unsynced records are invisible
        writer.sync()
        batch = tail.poll()
        assert [r.seq for r in batch] == [1]
        assert tail.poll() == []
        writer.append_record("release", {"request_id": 1})
        writer.sync()
        writer.close()
        assert [r.seq for r in tail.poll()] == [2]


class TestEngineRecovery:
    def drive(self, engine: EmbeddingEngine, requests, *, release=(), fault=False):
        for request in requests:
            engine.submit(request, rng=request.seed)
        for rid in release:
            if engine.is_active(rid):
                engine.release(rid)
        if fault:
            engine.apply_fault(
                FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(3))
            )

    def test_wal_only_restore_reproduces_the_fingerprint(self, tmp_path):
        network = engine_network()
        path = tmp_path / "shard.wal"
        engine = wal_engine(network, path)
        self.drive(engine, make_requests(network, 10), release=(0, 3), fault=True)
        engine.detach_wal()

        restored, leftover = EmbeddingEngine.restore(network, "MBBE", str(path), seed=5)
        assert leftover == {}
        assert restored.ledger_fingerprint() == engine.ledger_fingerprint()
        assert restored.counters == engine.counters
        assert restored.active_count() == engine.active_count()
        assert restored.wal_applied_seq == read_wal(str(path)).last_seq

    def test_snapshot_plus_wal_suffix_restore(self, tmp_path, monkeypatch):
        """Restore loads the last checkpoint and applies only what follows."""
        network = engine_network()
        path = tmp_path / "shard.wal"
        engine = wal_engine(network, path)
        requests = make_requests(network, 12)
        self.drive(engine, requests[:6])
        checkpoint_seq = engine.checkpoint()
        self.drive(engine, requests[6:], release=(1,), fault=True)
        engine.detach_wal()
        last_seq = read_wal(str(path)).last_seq
        assert last_seq > checkpoint_seq + 6

        applied: list[int] = []
        real_apply = EmbeddingEngine.apply_wal_record

        def counted(self, record):
            applied.append(record.seq)
            real_apply(self, record)

        monkeypatch.setattr(EmbeddingEngine, "apply_wal_record", counted)
        restored, _ = EmbeddingEngine.restore(network, "MBBE", str(path), seed=5)
        assert len(applied) == last_seq - checkpoint_seq
        assert applied == list(range(checkpoint_seq + 1, last_seq + 1))
        assert restored.ledger_fingerprint() == engine.ledger_fingerprint()
        assert restored.counters == engine.counters
        assert engine_state(restored) == engine_state(engine)

        # A standby seeds itself through the same restore, then tails only
        # records past its applied seq.
        applied.clear()
        standby = StandbyEngine(network, "MBBE", str(path), seed=5)
        assert applied == list(range(checkpoint_seq + 1, last_seq + 1))
        assert standby.poll() == 0
        assert standby.applied_seq == last_seq
        assert standby.ledger_fingerprint() == engine.ledger_fingerprint()

    def test_restored_engine_continues_decision_identically(self, tmp_path):
        network = engine_network()
        path = tmp_path / "shard.wal"
        requests = make_requests(network, 16)
        engine = wal_engine(network, path)
        twin = EmbeddingEngine(network, "MBBE", seed=5)
        self.drive(engine, requests[:8], release=(2,))
        self.drive(twin, requests[:8], release=(2,))
        engine.detach_wal()

        restored, _ = EmbeddingEngine.restore(network, "MBBE", str(path), seed=5)
        for request in requests[8:]:
            ours = restored.submit(request, rng=request.seed)
            theirs = twin.submit(request, rng=request.seed)
            assert ours.success == theirs.success
            assert ours.total_cost == pytest.approx(theirs.total_cost)
        assert restored.ledger_fingerprint() == twin.ledger_fingerprint()

    def test_attach_rejects_position_mismatch(self, tmp_path):
        network = engine_network()
        path = tmp_path / "shard.wal"
        engine = wal_engine(network, path)
        self.drive(engine, make_requests(network, 3))
        engine.detach_wal()
        # A fresh engine reflects seq 0; the log is further along.
        fresh = EmbeddingEngine(network, "MBBE", seed=5)
        with pytest.raises(WalError, match="restore"):
            fresh.attach_wal_file(str(path))

    def test_attach_rejects_foreign_network(self, tmp_path):
        path = tmp_path / "shard.wal"
        engine = wal_engine(engine_network(), path)
        engine.detach_wal()
        other = EmbeddingEngine(engine_network(seed=99), "MBBE", seed=5)
        with pytest.raises((WalError, ConfigurationError)):
            other.attach_wal_file(str(path))

    def test_golden_engine_state_is_identical_without_wal(self, tmp_path):
        """WAL on vs off changes no decision, no counter, no ledger byte."""
        network = engine_network()
        requests = make_requests(network, 10)
        plain = EmbeddingEngine(network, "MBBE", seed=5)
        logged = wal_engine(network, tmp_path / "shard.wal")
        for request in requests:
            a = plain.submit(request, rng=request.seed)
            b = logged.submit(request, rng=request.seed)
            assert (a.success, a.total_cost) == (b.success, b.total_cost)
        logged.detach_wal()
        assert plain.counters == logged.counters
        assert plain.ledger_fingerprint() == logged.ledger_fingerprint()
        assert plain.checkpoint_payload() == logged.checkpoint_payload()


class TestSnapshotRestoresTheEngine:
    """A checkpoint restores the whole engine, not just its reservations."""

    def test_snapshot_while_degraded_then_logged_recover(self, tmp_path):
        network = engine_network()
        path = tmp_path / "shard.wal"
        engine = wal_engine(network, path)
        for request in make_requests(network, 6):
            engine.submit(request, rng=request.seed)
        engine.apply_fault(fail(3))
        engine.checkpoint()  # node 3 is dead in this checkpoint
        engine.apply_fault(recover(3))
        engine.detach_wal()

        restored, _ = EmbeddingEngine.restore(network, "MBBE", str(path), seed=5)
        assert not restored.degraded
        assert engine_state(restored) == engine_state(engine)

    def test_restored_engine_repairs_like_the_original(self, tmp_path):
        network = engine_network()
        path = tmp_path / "shard.wal"
        engine = wal_engine(network, path)
        for request in make_requests(network, 6):
            engine.submit(request, rng=request.seed)
        engine.checkpoint()
        engine.detach_wal()

        restored, _ = EmbeddingEngine.restore(network, "MBBE", str(path), seed=5)
        assert restored.repair_engine.tracked_count() == 6
        # Node 0 carries requests 1 and 2: the original reroutes both, and
        # so must an engine that never replayed their commits, only loaded
        # the checkpoint.
        assert engine.ledger.affected_by(nodes=[0]) == [1, 2]
        ours = restored.apply_fault(fail(0))
        theirs = engine.apply_fault(fail(0))
        assert [(o.request_id, o.action, o.new_cost) for o in ours] == [
            (o.request_id, o.action, o.new_cost) for o in theirs
        ]
        assert engine_state(restored) == engine_state(engine)

    def test_tracked_entry_without_reservation_is_refused(self, tmp_path):
        network = engine_network()
        path = tmp_path / "shard.wal"
        engine = wal_engine(network, path)
        for request in make_requests(network, 2):
            engine.submit(request, rng=request.seed)
        payload = engine.checkpoint_payload()
        payload["tracked"][0]["request_id"] = 99
        engine.wal.append_record(wal_records.CHECKPOINT, payload)
        engine.detach_wal()
        with pytest.raises(WalError, match="request 99"):
            EmbeddingEngine.restore(network, "MBBE", str(path), seed=5)

    def test_checkpoint_needs_a_wal(self):
        engine = EmbeddingEngine(engine_network(), "MBBE", seed=5)
        with pytest.raises(ConfigurationError, match="write-ahead log"):
            engine.checkpoint()

    def test_disagreeing_checkpoint_raises_in_replay_and_in_the_standby(self, tmp_path):
        network = engine_network()
        path = str(tmp_path / "shard.wal")
        engine = wal_engine(network, path)
        standby = StandbyEngine(network, "MBBE", path, seed=5)
        for request in make_requests(network, 3):
            engine.submit(request, rng=request.seed)
        payload = engine.checkpoint_payload()
        payload["counters"]["accepted"] += 1
        payload["sequence"]["decision"] = 0
        seq = engine.wal.append_record(wal_records.CHECKPOINT, payload)
        engine.detach_wal()

        match = f"checkpoint record at seq {seq} diverged: .*counters, sequence"
        replayed = EmbeddingEngine(network, "MBBE", seed=5)
        with pytest.raises(WalError, match=match):
            for record in read_wal(path).records:
                replayed.apply_wal_record(record)
        with pytest.raises(WalError, match=match):
            standby.poll()
        # Loading the last checkpoint trusts it: restore does not re-derive it.
        restored, _ = EmbeddingEngine.restore(network, "MBBE", path, seed=5)
        assert restored.counters["accepted"] == engine.counters["accepted"] + 1


# One bounded event alphabet for the prefix property: submit ids are drawn
# small so releases/faults actually interact with live reservations, and
# rebalance cycles interleave migrations into the logged stream.
_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 11)),
        st.tuples(st.just("release"), st.integers(0, 11)),
        st.tuples(st.just("fault"), st.integers(0, 4)),
        st.tuples(st.just("recover"), st.integers(0, 4)),
        st.tuples(st.just("rebalance"), st.just(0)),
    ),
    max_size=14,
)

#: eager rebalance knobs for the property: low threshold, no cooldown, so
#: migrations fire whenever the random interleaving fragments the substrate.
_PROPERTY_REBALANCE = RebalanceConfig(
    max_moves=2, candidates=3, min_gain=0.001, cooldown=0
)


class TestReplayPrefixProperty:
    """Satellite 3: every prefix of the log restores the exact state."""

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(events=_EVENTS, cut=st.integers(0, 14))
    def test_any_prefix_replay_matches_a_from_scratch_engine(
        self, tmp_path_factory, events, cut
    ):
        tmp_path = tmp_path_factory.mktemp("wal-prefix")
        network = engine_network(seed=23)
        requests = {rid: request for rid, request in enumerate(make_requests(network, 12))}
        path = str(tmp_path / "shard.wal")
        logged = wal_engine(network, path, seed=9)
        shadow = EmbeddingEngine(network, "MBBE", seed=9)
        cut = min(cut, len(events))
        # One rebalancer per engine, identically configured: the logged and
        # the shadow engine then share cooldown state and plan seeds, so
        # their migration decisions (and hence their logs) are identical.
        rebalancers: dict[int, Rebalancer] = {}

        def apply(engine: EmbeddingEngine, event) -> None:
            kind, arg = event
            if kind == "submit":
                if not engine.is_active(arg):
                    engine.submit(requests[arg], rng=requests[arg].seed)
            elif kind == "release":
                if engine.is_active(arg):
                    engine.release(arg)
            elif kind == "rebalance":
                rebalancers.setdefault(
                    id(engine), Rebalancer(engine, _PROPERTY_REBALANCE)
                ).run_cycle()
            else:
                engine.apply_fault(
                    fail(arg) if kind == "fault" else recover(arg)
                )

        for event in events[:cut]:
            apply(logged, event)
            apply(shadow, event)
        cut_seq = logged.checkpoint()  # the state at the cut, synced
        prefix_state = engine_state(logged)
        for event in events[cut:]:
            apply(logged, event)
        logged.detach_wal()
        final_state = engine_state(logged)

        # Restoring (the checkpoint at the cut + the suffix) reproduces the
        # final state, hidden state included; so does replaying the *whole*
        # log from scratch, which also checks the checkpoint on the way.
        resumed, _ = EmbeddingEngine.restore(network, "MBBE", path, seed=9)
        assert engine_state(resumed) == final_state
        scan = read_wal(path)
        full = EmbeddingEngine(network, "MBBE", seed=9)
        for record in scan.records:
            full.apply_wal_record(record)
        assert engine_state(full) == final_state

        # Replaying exactly the records written by the cut (the checkpoint
        # included) reproduces the prefix state the shadow engine reached
        # running the same events.
        partial = EmbeddingEngine(network, "MBBE", seed=9)
        for record in scan.records[1:]:
            if record.seq > cut_seq:
                break
            partial.apply_wal_record(record)
        assert engine_state(partial) == prefix_state
        assert engine_state(shadow) == prefix_state


#: a small log covering all five effect kinds (including a constrained
#: commit and every repair action), generated by ``write_effect_scenario``
#: before the engine's single effect path existed.
FIXTURE_WAL = Path(__file__).parent / "golden" / "wal_effects.wal"
FIXTURE_FINGERPRINT = "53ffc2263431d733a238c74319fbef8595b7b7dcefc69dd26ff28535f3ea67b4"


class _FrozenClock:
    """Repair durations are wall-clock seconds; pin them for byte identity."""

    @staticmethod
    def perf_counter() -> float:
        return 0.0


def fixture_network() -> CloudNetwork:
    cfg = NetworkConfig(
        size=20, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
        vnf_capacity=3.0, link_capacity=3.0,
    )
    return generate_network(cfg, rng=1)


def write_effect_scenario(path) -> EmbeddingEngine:
    """Commits (one under a delay budget), releases, two migrations, a node
    failure repaired by reroute, re-embed and eviction, and its recovery."""
    network = fixture_network()
    requests = make_requests(network, 12, seed=4)
    requests[11] = replace(
        requests[11], constraints=ConstraintSet([DelayBudgetConstraint(budget=12.0)])
    )
    engine = wal_engine(network, path, seed=9)
    for request in requests:
        engine.submit(request, rng=request.seed)
    for rid in (0, 2, 4, 6):
        engine.release(rid)
    Rebalancer(
        engine, RebalanceConfig(max_moves=2, candidates=6, min_gain=0.001, cooldown=0)
    ).run_cycle()
    engine.apply_fault(
        FaultEvent(time=3, action=FaultAction.FAIL, target=FaultTarget.node(1))
    )
    engine.apply_fault(
        FaultEvent(time=5, action=FaultAction.RECOVER, target=FaultTarget.node(1))
    )
    engine.detach_wal()
    return engine


class TestWalFixture:
    """The committed log pins the record format and the replay semantics."""

    def test_fixture_covers_every_effect_kind(self):
        records = read_wal(str(FIXTURE_WAL), allow_torn_tail=False).records
        effect_kinds = set(wal_records.RECORD_TYPES) - {wal_records.CHECKPOINT}
        assert {r.type for r in records} == effect_kinds
        assert any(r.type == "commit" and "constraints" in r.payload for r in records)
        actions = {r.payload["action"] for r in records if r.type == "repair"}
        assert actions == {"rerouted", "re_embedded", "evicted"}

    def test_fixture_replays_to_its_recorded_fingerprint(self):
        engine, _ = EmbeddingEngine.restore(fixture_network(), "MBBE", str(FIXTURE_WAL), seed=9)
        assert engine.ledger_fingerprint() == FIXTURE_FINGERPRINT
        assert engine.counters["repairs_rerouted"] == 1
        assert engine.rebalance_counters["migrations_applied"] == 2

    def test_regenerating_the_scenario_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(repair_module, "time", _FrozenClock)
        path = tmp_path / "effects.wal"
        engine = write_effect_scenario(path)
        assert path.read_bytes() == FIXTURE_WAL.read_bytes()
        assert engine.ledger_fingerprint() == FIXTURE_FINGERPRINT

    def test_effects_reencode_to_the_logged_payloads(self):
        for record in read_wal(str(FIXTURE_WAL)).records[1:]:
            effect = wal_records.decode_effect(record.type, record.payload)
            assert effect.to_payload() == record.payload

    @pytest.mark.parametrize(
        "record_type, payload, match",
        [
            ("truncate", {}, "unknown WAL record type"),
            ("release", {}, "malformed release"),
            ("release", [], "not an object"),
            ("fault", {"time": 0, "action": "explode", "target": "node", "ids": [1]},
             "malformed fault"),
        ],
    )
    def test_malformed_payloads_raise_wal_errors(self, record_type, payload, match):
        with pytest.raises(WalError, match=match):
            wal_records.decode_effect(record_type, payload)

    def test_inconsistent_records_raise_wal_errors(self):
        records = {r.type: r.payload for r in read_wal(str(FIXTURE_WAL)).records}
        commit = dict(records["commit"], reservation=None)
        with pytest.raises(WalError, match="no reservation"):
            wal_records.decode_effect("commit", commit)
        commit = dict(records["commit"], accepted="yes")
        with pytest.raises(WalError, match="malformed commit"):
            wal_records.decode_effect("commit", commit)
        repair = dict(records["repair"], action="evicted")
        with pytest.raises(WalError, match="disagrees"):
            wal_records.decode_effect("repair", repair)

    def test_replay_divergence_names_the_record(self):
        engine = EmbeddingEngine(fixture_network(), "MBBE", seed=9)
        release = next(
            r for r in read_wal(str(FIXTURE_WAL)).records if r.type == "release"
        )
        with pytest.raises(WalError, match=f"release record at seq {release.seq}"):
            engine.apply_wal_record(release)


class TestStandbyPromotion:
    def test_standby_tails_and_promotes_decision_identically(self, tmp_path):
        network = engine_network()
        path = str(tmp_path / "shard.wal")
        requests = make_requests(network, 18)
        primary = wal_engine(network, path)
        twin = EmbeddingEngine(network, "MBBE", seed=5)

        standby = StandbyEngine(network, "MBBE", path, seed=5)
        for request in requests[:9]:
            primary.submit(request, rng=request.seed)
            twin.submit(request, rng=request.seed)
        for rid in (0, 4):
            if primary.is_active(rid):
                primary.release(rid)
                twin.release(rid)
        event = FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(7))
        primary.apply_fault(event)
        twin.apply_fault(event)
        primary.wal.sync()
        standby.poll()
        assert standby.ledger_fingerprint() == primary.ledger_fingerprint()

        # The primary "dies": nobody calls detach, the standby takes over the
        # same log file and must continue exactly like the never-crashed twin.
        primary.wal.close()
        promoted = standby.promote()
        assert promoted.wal is not None
        for request in requests[9:]:
            ours = promoted.submit(request, rng=request.seed)
            theirs = twin.submit(request, rng=request.seed)
            assert ours.success == theirs.success
            assert ours.total_cost == pytest.approx(theirs.total_cost)
        assert promoted.ledger_fingerprint() == twin.ledger_fingerprint()
        assert promoted.counters == twin.counters
        promoted.detach_wal()

        # The promoted engine's log is itself recoverable end to end.
        restored, _ = EmbeddingEngine.restore(network, "MBBE", path, seed=5)
        assert restored.ledger_fingerprint() == twin.ledger_fingerprint()

    def test_standby_rejects_double_promotion_and_post_promote_poll(self, tmp_path):
        network = tight_network()
        path = str(tmp_path / "shard.wal")
        primary = wal_engine(network, path)
        standby = StandbyEngine(network, "MBBE", path, seed=5)
        primary.submit(line_request(1), rng=0)
        primary.detach_wal()
        standby.promote(attach_writer=False)
        with pytest.raises(WalError, match="promoted"):
            standby.promote()
        with pytest.raises(WalError, match="promoted"):
            standby.poll()

    def test_tick_promote_swaps_the_shard(self, tmp_path):
        network = tight_network()
        path = str(tmp_path / "net0.wal")
        primary = EmbeddingEngine(network, "MBBE", seed=5)
        primary.attach_wal_file(path, network_id="net0")
        rails = RebalanceConfig(max_moves=2)
        tick = ShardTick(primary, rebalance=rails)
        tick.standby = StandbyEngine(network, "MBBE", path, seed=5)
        primary.submit(line_request(1), rng=0)
        primary.wal.sync()

        promoted = tick.promote()
        assert tick.engine is promoted and promoted is not primary
        assert tick.standby is None
        assert primary.wal is None  # abandoned, not synced
        assert tick.rebalancer.engine is promoted
        assert tick.rebalancer.config is rails
        assert promoted.is_active(1)
        assert promoted.wal is not None
        promoted.detach_wal()

    def test_tick_promote_without_standby_raises(self):
        engine = EmbeddingEngine(tight_network(), "MBBE")
        tick = ShardTick(engine)
        with pytest.raises(ConfigurationError, match="standby"):
            tick.promote()
        assert tick.engine is engine


def make_workload(network, n: int, *, seed: int = 11):
    gen = as_generator(seed)
    out = []
    for rid in range(n):
        dag = generate_dag_sfc(SfcConfig(size=3), 6, rng=gen)
        src, dst = (int(v) for v in gen.choice(network.num_nodes, size=2, replace=False))
        out.append((rid, dag, src, dst, 1.0, int(gen.integers(2**31))))
    return out


class TestServiceDurability:
    def test_served_decisions_are_recoverable_from_the_wal(self, tmp_path):
        network = engine_network()
        workload = make_workload(network, 20)
        wal_dir = str(tmp_path / "wal")
        config = ServiceConfig(batch_size=4, wal_dir=wal_dir)

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
                    accepted = [o.request_id for o in outcomes if o.accepted]
                    await client.release(accepted[0])
                    stats = await client.stats()
                fingerprint = server.shard_tick().engine.ledger_fingerprint()
            return outcomes, stats, fingerprint, accepted

        outcomes, stats, fingerprint, accepted = run(drive())
        assert accepted
        shard_stats = stats["shards"][DEFAULT_NETWORK_ID]
        assert shard_stats["ledger_fingerprint"] == fingerprint
        assert shard_stats["wal"] is not None

        # Offline recovery from the log alone reproduces the served state:
        # every acknowledged accept is active, the released one is not.
        path = shard_wal_path(wal_dir, DEFAULT_NETWORK_ID)
        restored, _ = EmbeddingEngine.restore(network, config.solver, path, seed=config.seed)
        assert restored.ledger_fingerprint() == fingerprint
        assert not restored.is_active(accepted[0])
        for rid in accepted[1:]:
            assert restored.is_active(rid)

    def test_client_promote_fails_over_mid_session(self, tmp_path):
        network = engine_network()
        workload = make_workload(network, 24)
        wal_dir = str(tmp_path / "wal")
        config = ServiceConfig(batch_size=4, wal_dir=wal_dir, standby=True)

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    first = await asyncio.gather(
                        *(
                            client.submit(rid, dag, src, dst, rate=rate, seed=s)
                            for rid, dag, src, dst, rate, s in workload[:12]
                        )
                    )
                    reply = await client.promote()
                    second = await asyncio.gather(
                        *(
                            client.submit(rid, dag, src, dst, rate=rate, seed=s)
                            for rid, dag, src, dst, rate, s in workload[12:]
                        )
                    )
                    stats = await client.stats()
            return first, reply, second, stats

        first, reply, second, stats = run(drive())
        assert reply["type"] == "promoted"
        assert reply["active"] == sum(1 for o in first if o.accepted)
        decisions = {o.request_id: o for o in [*first, *second]}

        # The whole session — across the fail-over — must match one offline
        # engine fed the same requests in the server's decision order.
        offline = EmbeddingEngine(network, config.solver, seed=config.seed)
        by_rid = {w[0]: w for w in workload}
        for outcome in sorted(decisions.values(), key=lambda o: o.decision_index):
            rid, dag, src, dst, rate, seed = by_rid[outcome.request_id]
            request = EmbeddingRequest(
                request_id=rid, dag=dag, source=src, dest=dst,
                flow=FlowConfig(rate=rate), seed=seed,
            )
            result = offline.submit(request, rng=seed)
            assert result.success == outcome.accepted
            if result.success:
                assert result.total_cost == pytest.approx(outcome.total_cost)
        shard_stats = stats["shards"][DEFAULT_NETWORK_ID]
        assert shard_stats["ledger_fingerprint"] == ledger_fingerprint(offline.ledger)
        assert shard_stats["standby"] is None

    def test_standby_poll_never_overlaps_a_promotion(self, tmp_path, monkeypatch):
        """A standby poll stuck in its worker thread must finish before the
        promotion's own catch-up poll reads the same log tail."""
        network = engine_network()
        rid, dag, src, dst, rate, seed = make_workload(network, 1)[0]
        config = ServiceConfig(
            batch_size=4, wal_dir=str(tmp_path / "wal"), standby=True
        )
        lock = threading.Lock()
        in_flight = peak = 0
        armed = False
        held = threading.Event()
        release = threading.Event()
        real_poll = StandbyEngine.poll

        def counted_poll(self):
            nonlocal in_flight, peak, armed
            with lock:
                in_flight += 1
                peak = max(peak, in_flight)
                hold, armed = armed, False
            try:
                if hold:
                    held.set()
                    release.wait(5)
                return real_poll(self)
            finally:
                with lock:
                    in_flight -= 1

        monkeypatch.setattr(StandbyEngine, "poll", counted_poll)

        async def drive():
            nonlocal armed
            async with EmbeddingServer(network, config) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    armed = True
                    await client.submit(rid, dag, src, dst, rate=rate, seed=seed)
                    fingerprint = server.shard_tick().engine.ledger_fingerprint()
                    try:
                        assert await asyncio.to_thread(held.wait, 5)
                        promote = asyncio.ensure_future(client.promote())
                        await asyncio.sleep(0.3)
                    finally:
                        release.set()
                    reply = await asyncio.wait_for(promote, 5)
            return fingerprint, reply

        fingerprint, reply = run(drive())
        assert peak == 1
        assert reply["type"] == "promoted"
        assert reply["ledger_fingerprint"] == fingerprint

    def test_standbys_are_caught_up_when_a_drain_replies(self, tmp_path):
        networks = {"net0": engine_network(17), "net1": engine_network(19)}
        config = ServiceConfig(
            batch_size=4, wal_dir=str(tmp_path / "wal"), standby=True
        )

        async def drive():
            async with EmbeddingServer(networks, config) as server:
                async with await ServiceClient.connect(*server.address) as client:
                    for network_id, network in networks.items():
                        outcomes = await asyncio.gather(
                            *(
                                client.submit(
                                    rid, dag, src, dst, rate=rate, seed=s,
                                    network_id=network_id,
                                )
                                for rid, dag, src, dst, rate, s in make_workload(network, 8)
                            )
                        )
                        accepted = [o.request_id for o in outcomes if o.accepted]
                        await client.release(accepted[0], network_id=network_id)
                    drained = await client.drain()
                    positions = {
                        network_id: (
                            server.shard_tick(network_id).standby.applied_seq,
                            server.shard_tick(network_id).engine.wal.seq,
                        )
                        for network_id in networks
                    }
            return drained, positions

        drained, positions = run(drive())
        for network_id in networks:
            shard = drained["shards"][network_id]
            assert shard["wal"]["seq"] > 1
            assert shard["standby"]["applied_seq"] == shard["wal"]["seq"]
            standby_seq, wal_seq = positions[network_id]
            assert standby_seq == wal_seq == shard["wal"]["seq"]

    def test_promote_without_standby_is_a_structured_error(self, tmp_path):
        network = tight_network()
        config = ServiceConfig(wal_dir=str(tmp_path / "wal"))

        async def drive():
            async with EmbeddingServer(network, config) as server:
                host, port = server.address
                async with await ServiceClient.connect(host, port) as client:
                    with pytest.raises(ServiceError, match="standby"):
                        await client.promote()

        run(drive())

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="wal_dir"):
            ServiceConfig(standby=True)
