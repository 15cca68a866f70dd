"""Tests of the benchmark itself: release order, correctness checks, output.

Run with ``python -m pytest e2ebench`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import check_wal, regenerate_network
from loadgen import DepartureClock, DriveResult, drive
from metrics import END_TO_END, PER_LAYER
from repro.config import FlowConfig, SfcConfig
from repro.engine import EmbeddingEngine, EmbeddingRequest
from repro.service.client import SubmitOutcome
from repro.sim.trace import generate_trace
from repro.utils.rng import as_generator
from repro.wal.log import chain_hash, read_wal
from tracelaunch import _attribute_requests
from workloads import BENCHMARKED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SMALL = WORKLOADS["small_n40_open"]


def _trace(n_events: int, seed: int = 3) -> list:
    trace = generate_trace(
        steps=4 * n_events,
        n_nodes=SMALL.network_size,
        n_vnf_types=SMALL.n_vnf_types,
        sfc=SfcConfig(size=SMALL.sfc_size),
        arrival_probability=0.5,
        mean_hold=4.0,
        rng=seed,
    )
    return list(trace)[:n_events]


# -- logical-clock release order ---------------------------------------------------


def test_departure_clock_pops_due_ids_in_step_then_id_order():
    events = _trace(30)
    clock = DepartureClock()
    for event in events:
        clock.hold(event)
    due = clock.due(events[10].step)
    expected = sorted(
        (e.departure_step, e.request.request_id)
        for e in events
        if e.departure_step <= events[10].step
    )
    assert due == [rid for _, rid in expected]
    assert clock.due(events[10].step) == []


class _FakeClient:
    """Accepts every submit after a random delay; records the wire order."""

    def __init__(self, rng, reject: set[int]) -> None:
        self.rng = rng
        self.reject = reject
        self.wire: list[tuple[str, int]] = []
        self.undecided = 0
        #: submits still undecided when each release was sent.
        self.undecided_at_release: list[int] = []

    async def submit(self, request_id, dag, source, dest, **_):
        self.wire.append(("submit", request_id))
        self.undecided += 1
        await asyncio.sleep(self.rng.random() * 0.002)
        self.undecided -= 1
        accepted = request_id not in self.reject
        return SubmitOutcome(
            request_id=request_id,
            accepted=accepted,
            total_cost=1.0 if accepted else None,
            code=None if accepted else "no_solution",
            reason=None,
            decision_index=request_id,
            commit_index=None,
            latency=0.0,
        )

    async def release(self, request_id):
        self.wire.append(("release", request_id))
        self.undecided_at_release.append(self.undecided)
        await asyncio.sleep(self.rng.random() * 0.001)
        return True


def _expected_wire(events, reject):
    """The order ``sim.trace.replay`` applies departures and arrivals in."""
    wire = []
    clock = DepartureClock()
    for event in events:
        wire += [("release", rid) for rid in clock.due(event.step) if rid not in reject]
        wire.append(("submit", event.request.request_id))
        clock.hold(event)
    return wire


@pytest.mark.parametrize("in_flight", [1, 4])
def test_closed_loop_releases_follow_the_logical_clock(in_flight):
    events = _trace(60)
    reject = {e.request.request_id for e in events[::7]}
    seeds = {e.request.request_id: 0 for e in events}
    wires = []
    for timing_seed in (1, 2):
        client = _FakeClient(as_generator(timing_seed), reject)
        result = asyncio.run(
            drive(client, events, seeds, seconds=None, in_flight=in_flight)
        )
        assert not result.failures
        wires.append(client.wire)
        if in_flight == 1:
            # The dispatcher applies a cycle's releases before its submits,
            # so a release must never share the wire with an undecided submit.
            assert set(client.undecided_at_release) == {0}
    # Reply timing never changes the order releases and submits are sent in.
    assert wires[0] == wires[1] == _expected_wire(events, reject)


def test_open_loop_never_releases_before_the_departure_step():
    events = _trace(60)
    seeds = {e.request.request_id: 0 for e in events}
    client = _FakeClient(as_generator(5), set())
    result = asyncio.run(drive(client, events, seeds, seconds=None, in_flight=None, tick_s=0.001))
    by_id = {e.request.request_id: e for e in events}
    for position, (op, rid) in enumerate(client.wire):
        if op == "release":
            # Every arrival sent after the release is at or past its departure.
            later = [by_id[r].step for o, r in client.wire[position:] if o == "submit"]
            assert all(step >= by_id[rid].departure_step for step in later)
    assert len(result.outcomes) == len(events)
    assert len(result.lateness) == len(events)


def test_spans_take_the_request_id_they_served():
    spans = [
        [1, 0, "engine.view", 0.0, 1.0, None, None],
        [2, 0, "solvers.embed", 1.0, 2.0, None, None],
        [3, 2, "solvers.dijkstra", 1.1, 1.2, None, 5],
        [4, 0, "engine.commit", 2.0, 3.0, 42, True],
        [5, 4, "engine.view", 2.1, 2.2, None, None],
        [6, 0, "wal.sync", 3.0, 3.1, None, 1],
        [7, 0, "engine.view", 3.2, 3.3, None, None],
        [8, 0, "engine.commit", 3.4, 3.5, 43, False],
    ]
    _attribute_requests(spans)
    assert [s[5] for s in spans] == [42, 42, 42, 42, 42, None, 43, 43]


# -- the WAL-based correctness check -----------------------------------------------


@pytest.fixture
def served(tmp_path):
    """A WAL written by a real engine plus the client view of its decisions."""
    network = regenerate_network(SMALL)
    engine = EmbeddingEngine(network, "MBBE", seed=SMALL.server_seed)
    wal_path = str(tmp_path / "net0.wal")
    engine.attach_wal_file(wal_path, network_id="net0")
    result = DriveResult()
    for index, event in enumerate(_trace(25)):
        src = event.request
        request = EmbeddingRequest(
            src.request_id, src.dag, src.source, src.dest, FlowConfig(rate=1.0), seed=index
        )
        decision = engine.commit(request, engine.solve(request, rng=index))
        result.submitted.append(event)
        result.outcomes[src.request_id] = SubmitOutcome(
            request_id=src.request_id,
            accepted=decision.accepted,
            total_cost=decision.total_cost,
            code=decision.code,
            reason=decision.reason,
            decision_index=decision.decision_index,
            commit_index=decision.commit_index,
            latency=0.0,
        )
    first = next(rid for rid, out in result.outcomes.items() if out.accepted)
    engine.release(first)
    result.released.append(first)
    fingerprint = engine.ledger_fingerprint()
    engine.detach_wal()
    return network, wal_path, fingerprint, result


def _rewrite_commit(wal_path, edit):
    """Apply ``edit`` to the first accepted commit payload and re-chain the log,
    so the doctored log still reads as a valid one."""
    records = read_wal(wal_path).records
    lines = []
    chain = ""
    edited = False
    for record in records:
        payload = json.loads(json.dumps(record.payload))
        if not edited and record.type == "commit" and payload["accepted"]:
            edit(payload)
            edited = True
        body = {"payload": payload, "seq": record.seq, "type": record.type}
        chain = chain_hash(chain, json.dumps(body, sort_keys=True, separators=(",", ":")))
        lines.append(json.dumps({**body, "chain": chain}, sort_keys=True, separators=(",", ":")))
    Path(wal_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_check_passes_on_an_honest_log(served):
    network, wal_path, fingerprint, result = served
    assert check_wal(SMALL, network, wal_path, fingerprint, result) == []


def test_check_fails_on_a_doctored_commit_embedding(served):
    network, wal_path, fingerprint, result = served

    def move_vnf(payload):
        # Move one VNF to another node: its routed paths no longer reach it.
        placement = payload["embedding"]["placements"][0]
        placement["node"] = (placement["node"] + 1) % SMALL.network_size

    _rewrite_commit(wal_path, move_vnf)
    problems = check_wal(SMALL, network, wal_path, fingerprint, result)
    assert any("referee" in p or "usage" in p or "replay" in p for p in problems), problems


def test_check_fails_on_a_doctored_commit_cost(served):
    network, wal_path, fingerprint, result = served

    def inflate(payload):
        payload["total_cost"] += 1.0
        payload["reservation"]["cost"] += 1.0

    _rewrite_commit(wal_path, inflate)
    problems = check_wal(SMALL, network, wal_path, fingerprint, result)
    assert any("cost" in p for p in problems), problems


def test_check_fails_when_the_reply_cost_differs(served):
    network, wal_path, fingerprint, result = served
    rid, outcome = next((r, o) for r, o in result.outcomes.items() if o.accepted)
    result.outcomes[rid] = SubmitOutcome(
        **{**outcome.__dict__, "total_cost": outcome.total_cost * (1 + 1e-9)}
    )
    problems = check_wal(SMALL, network, wal_path, fingerprint, result)
    assert any(f"request {rid}" in p and "cost" in p for p in problems), problems


def test_check_fails_on_an_edited_log_line(served):
    network, wal_path, fingerprint, result = served
    text = Path(wal_path).read_text(encoding="utf-8").replace('"accepted":true', '"accepted":false', 1)
    Path(wal_path).write_text(text, encoding="utf-8")
    problems = check_wal(SMALL, network, wal_path, fingerprint, result)
    assert problems and "WAL replay failed" in problems[0]


def test_check_fails_when_a_rejected_request_holds_capacity(served):
    network, wal_path, fingerprint, result = served
    rid, outcome = next((r, o) for r, o in result.outcomes.items() if o.accepted and r not in result.released)
    result.outcomes[rid] = SubmitOutcome(
        **{**outcome.__dict__, "accepted": False, "total_cost": None, "code": "no_solution"}
    )
    problems = check_wal(SMALL, network, wal_path, fingerprint, result)
    assert any("rejected requests hold reservations" in p for p in problems), problems


# -- the command's output and BENCHMARK.json ----------------------------------------


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_the_vocabulary():
    doc = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (WORKLOADS[name].name, WORKLOADS[name].why) for name in BENCHMARKED
    ]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_printed_metric_is_named_in_benchmark_json(trace, section):
    out = _run("--workload", "small_n40_open", "--seed", "7", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stdout + out.stderr
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    printed = {name: value["unit"] for name, value in doc["metrics"].items()}
    assert printed == named
    for name in named:
        assert name in out.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run("--workload", "small_n40_open", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
