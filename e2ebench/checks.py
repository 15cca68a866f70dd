"""Correctness checks run after every measured drive.

* The shard's write-ahead log, replayed into a fresh engine on the
  regenerated substrate, must reproduce the drained ledger fingerprint.
* Every accept the client saw has exactly one accepted commit record; its
  embedding passes the referee, satisfies the request's constraints, its
  eq. 1 cost equals the reply's ``total_cost`` and its reservation is the
  embedding's eq. 7/8 usage scaled by the rate.
* No request the client saw rejected holds a reservation, and the live
  reservations are exactly the accepts not yet released.
* With one request in flight, an in-process replay of the same trace and
  seeds through :class:`EmbeddingEngine` decides identically, bit for bit.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

from loadgen import DepartureClock, DriveResult
from repro.config import FlowConfig, NetworkConfig
from repro.constraints.base import ConstraintSet
from repro.embedding.base import compute_cost, verify_embedding
from repro.engine import EmbeddingEngine, EmbeddingRequest
from repro.engine.state_store import reservation_to_record
from repro.exceptions import EmbeddingError, WalError
from repro.network.cloud import CloudNetwork
from repro.network.generator import generate_network
from repro.network.reservations import Reservation
from repro.sim.trace import TraceEvent
from repro.wal import records as wal_records
from repro.wal.log import read_wal
from workloads import Workload

__all__ = ["SOLVER", "regenerate_network", "check_wal", "replay_in_process", "compare_decisions"]

#: the solver ``dag-sfc serve`` runs by default.
SOLVER = "MBBE"
#: relative tolerance between eq. 1 recomputed from the log and the reply
#: (a few ulps: summation order only, never a different embedding).
COST_REL_TOL = 1e-12


def regenerate_network(workload: Workload) -> CloudNetwork:
    """The substrate ``dag-sfc serve`` builds for ``workload``."""
    config = NetworkConfig(
        size=workload.network_size,
        connectivity=workload.connectivity,
        n_vnf_types=workload.n_vnf_types,
        deploy_ratio=workload.deploy_ratio,
        vnf_capacity=workload.capacity,
        link_capacity=workload.capacity,
    )
    return generate_network(config, rng=workload.server_seed)


def _check_commit(
    network: CloudNetwork, payload: dict[str, Any], reply_cost: float | None
) -> str | None:
    """Why an accepted commit record is wrong, or None."""
    request_id = payload["request_id"]
    embedding = wal_records.embedding_from_payload(payload["embedding"])
    flow = wal_records.flow_from_payload(payload["flow"])
    try:
        verify_embedding(network, embedding, flow)
    except EmbeddingError as exc:
        return f"request {request_id}: logged embedding fails the referee: {exc}"
    violation = wal_records.constraints_from_payload(payload).check(network, embedding, flow)
    if violation is not None:
        return f"request {request_id}: logged embedding violates {violation}"
    cost = compute_cost(network, embedding, flow)
    # The log's embedding codec may reorder link uses, so eq. 1 summed over
    # the decoded embedding can differ from the live sum in the last bits;
    # the logged total itself must match the reply exactly.
    if payload["total_cost"] != reply_cost or not math.isclose(  # reprolint: disable=RPL501 -- the logged total must be the reply's, bit for bit
        cost.total, reply_cost, rel_tol=COST_REL_TOL
    ):
        return (
            f"request {request_id}: reply cost {reply_cost!r}, logged "
            f"{payload['total_cost']!r}, eq. 1 on the embedding {cost.total!r}"
        )
    usage = Reservation.from_counts(
        cost.alpha_vnf, cost.alpha_link, rate=flow.rate, cost=reply_cost
    )
    expected = json.loads(json.dumps(reservation_to_record(request_id, usage)))
    if expected != payload["reservation"]:
        return f"request {request_id}: logged reservation is not the embedding's usage"
    return None


def check_wal(
    workload: Workload,
    network: CloudNetwork,
    wal_path: str,
    fingerprint: str,
    drive: DriveResult,
) -> list[str]:
    """Replay the log and check it against the drained server and the client."""
    problems: list[str] = []
    engine = EmbeddingEngine(network, SOLVER, seed=workload.server_seed)
    accepted_commits: dict[int, list[dict[str, Any]]] = {}
    try:
        scan = read_wal(wal_path, allow_torn_tail=False)
        if not scan.records:
            return [f"{wal_path}: empty log"]
        wal_records.check_header(scan.records[0].payload, network_fingerprint=engine.fingerprint)
        for record in scan.records[1:]:
            if record.type == wal_records.COMMIT and record.payload["accepted"]:
                accepted_commits.setdefault(int(record.payload["request_id"]), []).append(
                    dict(record.payload)
                )
            engine.apply_wal_record(record)
    except WalError as exc:
        return [f"WAL replay failed: {exc}"]
    if engine.ledger_fingerprint() != fingerprint:
        problems.append("WAL replay does not reproduce the drained ledger fingerprint")

    client_accepted = {rid for rid, out in drive.outcomes.items() if out.accepted}
    client_rejected = set(drive.outcomes) - client_accepted
    for request_id in sorted(client_accepted):
        commits = accepted_commits.get(request_id, [])
        if len(commits) != 1:
            problems.append(
                f"request {request_id}: {len(commits)} accepted commit records, expected 1"
            )
            continue
        problem = _check_commit(network, commits[0], drive.outcomes[request_id].total_cost)
        if problem is not None:
            problems.append(problem)
    active = set(engine.active_ids())
    held_by_rejected = active & client_rejected
    if held_by_rejected:
        problems.append(f"rejected requests hold reservations: {sorted(held_by_rejected)[:5]}")
    expected_active = client_accepted - set(drive.released)
    if active != expected_active:
        problems.append(
            f"{len(active ^ expected_active)} requests differ between the live "
            "reservations and the client's accepted-minus-released set"
        )
    return problems


def replay_in_process(
    workload: Workload,
    network: CloudNetwork,
    events: Sequence[TraceEvent],
    seeds: dict[int, int],
    constraints: ConstraintSet,
) -> dict[int, tuple[bool, float | None]]:
    """Decide ``events`` through an in-process engine under the load generator's
    logical-clock release order; request id -> (accepted, total cost)."""
    engine = EmbeddingEngine(network, SOLVER, seed=workload.server_seed)
    clock = DepartureClock()
    decided: dict[int, tuple[bool, float | None]] = {}
    for event in events:
        for request_id in clock.due(event.step):
            if decided[request_id][0]:
                engine.release(request_id)
        src = event.request
        request = EmbeddingRequest(
            src.request_id,
            src.dag,
            src.source,
            src.dest,
            FlowConfig(rate=src.flow.rate),
            seed=seeds[src.request_id],
            constraints=constraints,
        )
        decision = engine.commit(request, engine.solve(request, rng=request.seed))
        decided[src.request_id] = (decision.accepted, decision.total_cost)
        clock.hold(event)
    return decided


def compare_decisions(
    label: str,
    expected: dict[int, tuple[bool, float | None]],
    drive: DriveResult,
) -> list[str]:
    """Problems where the client's decisions differ from ``expected``."""
    seen = {rid: (out.accepted, out.total_cost) for rid, out in drive.outcomes.items()}
    diff = [rid for rid in expected if seen.get(rid) != expected[rid]]
    if not diff and len(seen) == len(expected):
        return []
    rid = diff[0] if diff else None
    return [
        f"{label}: {len(diff)} of {len(expected)} decisions differ "
        f"(first: request {rid}, expected {expected.get(rid)}, served {seen.get(rid)})"
    ]
