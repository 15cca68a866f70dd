"""Drills: ``dag-sfc drill SCENARIO`` proves the service survives faults,
crashes and live migration.

Each scenario in :data:`DRILLS` is one function returning a report dict with
an ``ok`` verdict; the CLI prints it, writes it with ``--out`` and exits 1
unless ``ok``.

* ``smoke``, ``stress``, ``delay_budget`` — a seeded substrate, trace and
  fault script drive an in-process chaos-mode server one request at a time
  (``BENCH_<scenario>.json``); an in-process :class:`~repro.engine.tick.ShardTick`
  fed the same steps must match its ledgers, counters and repairs. ``ok``:
  a repair ran, the replay matches and no capacity stays in use.
* ``durability`` — kill -9 a ``serve --wal`` after 8 acknowledged accepts;
  the log alone must hold every one and a restart must report the same
  fingerprint. Then a promoted standby must decide like a never-crashed twin
  (``BENCH_durability.json``).
* ``rebalance`` — rebalancer cycles on a fragmented tight substrate recover
  cost, replayed and standby-tailed to the same fingerprint; then a ``serve
  --rebalance`` is killed after its first applied migration and recovery must
  hold exactly the acknowledged active set (``BENCH_rebalance.json``).
* ``shards`` — a 2-shard ``serve --wal --standby --rebalance`` with chaos on
  ``net1``, so the fault script, the rebalance timer and standby catch-up
  all run in one process: one trace walk per shard, a ``promote`` of
  ``net0`` that must succeed, then one walk per constraint plugin on the
  promoted ``net0``, each of which must accept work; a ``snapshot`` before
  the drain must leave a ``checkpoint`` record in both shard logs
  (``net0``'s written by the promoted standby).

No wait on a spawned server is unbounded: its output goes to a log file that
is polled for the listening banner, and every client call and process exit
has a fixed deadline. An expired deadline kills the server and makes the
report ``ok: false`` with the phase and the log's last lines.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Awaitable, Callable, Iterator, Mapping, TypeVar

from .config import FlowConfig, NetworkConfig, SfcConfig
from .constraints.base import ConstraintSet
from .constraints.registry import parse_constraint_args
from .engine import DEFAULT_NETWORK_ID, EmbeddingEngine, EmbeddingRequest, ShardTick
from .engine.rebalance import RebalanceConfig, Rebalancer, fragmentation_index
from .exceptions import ServiceError
from .faults.model import FaultAction, FaultEvent, FaultSpec, FaultTarget, generate_fault_script
from .network.cloud import CloudNetwork
from .network.generator import generate_network
from .network.reservations import ReservationLedger
from .service.client import ServiceClient, SubmitOutcome
from .service.server import EmbeddingServer, ServiceConfig
from .sfc.generator import generate_dag_sfc
from .sim.trace import ArrivalTrace, generate_trace
from .utils.rng import as_generator, trial_seed
from .utils.stats import p50_p95_max
from .wal.log import read_wal, shard_wal_path
from .wal.standby import StandbyEngine

__all__ = [
    "DRILLS",
    "Drill",
    "DrillTimeout",
    "format_summary",
    "run_drill",
    "spawn_server",
    "write_report",
]

T = TypeVar("T")

#: seconds a spawned server gets to print its listening banner.
BANNER_TIMEOUT_S = 30.0
#: seconds any one client call (or one load burst) may take.
CALL_TIMEOUT_S = 30.0
#: seconds a server gets to exit after drain-with-shutdown or SIGKILL.
EXIT_TIMEOUT_S = 30.0
#: seconds the rebalance crash phase waits for the first applied migration.
MIGRATION_WAIT_S = 20.0
#: ``rebalance`` verb calls the crash phase makes before giving up on one.
MIGRATION_MAX_CYCLES = 20
#: server log lines a timed-out report carries.
LOG_TAIL_LINES = 20

_BANNER = re.compile(r" on ([\d.]+):(\d+) ")
_SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class DrillTimeout(Exception):
    """A drill wait outlived its deadline; the server has been killed."""

    def __init__(self, phase: str, message: str, log_tail: list[str]) -> None:
        super().__init__(message)
        self.phase = phase
        self.log_tail = log_tail


# -- shared pieces: requests, the serve subprocess, deadlines, reports --------------


def _requests(
    network: CloudNetwork, n: int, *, seed: int, first_id: int = 0
) -> list[EmbeddingRequest]:
    gen = as_generator(seed)
    out = []
    for rid in range(first_id, first_id + n):
        dag = generate_dag_sfc(SfcConfig(size=3), 6, rng=gen)  # both substrates: 6 types
        src, dst = (int(v) for v in gen.choice(network.num_nodes, size=2, replace=False))
        out.append(
            EmbeddingRequest(
                request_id=rid, dag=dag, source=src, dest=dst,
                flow=FlowConfig(rate=1.0), seed=int(gen.integers(2**31)),
                arrival_index=rid,
            )
        )
    return out


def _serve_command(solver: str, seed: int, *args: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
        "--seed", str(seed), "--solver", solver, "--batch-size", "4", *args,
    ]


def _wal_serve_command(
    net: NetworkConfig, workdir: str, solver: str, seed: int, *args: str
) -> list[str]:
    """``serve`` on ``net`` with a WAL in ``workdir``, resuming from it."""
    return _serve_command(
        solver, seed,
        "--network-size", str(net.size), "--connectivity", str(net.connectivity),
        "--n-vnf-types", str(net.n_vnf_types), "--deploy-ratio", str(net.deploy_ratio),
        "--vnf-capacity", str(net.vnf_capacity), "--link-capacity", str(net.link_capacity),
        "--wal", os.path.join(workdir, "wal"), "--resume",
        *args,
    )


def _log_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read().splitlines()
    except OSError:
        return []


@dataclass
class Server:
    """A ``dag-sfc serve`` subprocess whose output goes to ``log_path``."""

    proc: "subprocess.Popen[bytes]"
    host: str
    port: int
    log_path: str
    phase: str

    def timeout(self, message: str) -> DrillTimeout:
        return DrillTimeout(self.phase, message, _log_lines(self.log_path)[-LOG_TAIL_LINES:])

    def kill(self) -> None:
        """SIGKILL the server (returns at once; :meth:`wait` reaps it)."""
        self.proc.kill()

    def wait(self) -> int:
        """The server's exit code, waited for under :data:`EXIT_TIMEOUT_S`."""
        try:
            return self.proc.wait(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait()
            raise self.timeout(f"server did not exit within {EXIT_TIMEOUT_S:g}s") from None


def spawn_server(
    command: list[str], log_path: str, *, phase: str, banner_timeout: float = BANNER_TIMEOUT_S
) -> Server:
    """Start ``command`` with its output in ``log_path`` and poll the log for
    the listening banner; raises :class:`DrillTimeout` if none appears within
    ``banner_timeout`` seconds or the process exits first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT, env=env)
    server = Server(proc, "", 0, log_path, phase)
    deadline = time.monotonic() + banner_timeout
    while True:
        for line in _log_lines(log_path):
            match = _BANNER.search(line)
            if match:
                server.host, server.port = match.group(1), int(match.group(2))
                return server
        if proc.poll() is not None:
            reason = f"server exited with code {proc.returncode} before serving"
            break
        if time.monotonic() > deadline:
            reason = f"server printed no listening banner within {banner_timeout:g}s"
            break
        time.sleep(0.05)
    server.kill()
    proc.wait()
    raise server.timeout(reason)


@contextlib.contextmanager
def served(command: list[str], workdir: str, phase: str) -> Iterator[Server]:
    """A server for one phase: a client deadline expiring inside the block
    becomes :class:`DrillTimeout`, and the server is always reaped."""
    server = spawn_server(command, os.path.join(workdir, f"{phase}.log"), phase=phase)
    try:
        yield server
    except asyncio.TimeoutError:
        raise server.timeout(
            f"a client call outlived its {CALL_TIMEOUT_S:g}s deadline"
        ) from None
    finally:
        server.kill()
        server.wait()


async def _call(awaitable: Awaitable[T]) -> T:
    """One client call under :data:`CALL_TIMEOUT_S`."""
    return await asyncio.wait_for(awaitable, CALL_TIMEOUT_S)


async def _close(client: ServiceClient) -> None:
    """Close a client whose server may already be dead."""
    try:
        await _call(client.close())
    except (ConnectionError, OSError):
        pass


async def _submit(
    client: ServiceClient, request: EmbeddingRequest, network_id: str | None = None
) -> SubmitOutcome:
    """One submit under :data:`CALL_TIMEOUT_S`."""
    return await asyncio.wait_for(
        client.submit(
            request.request_id, request.dag, request.source, request.dest,
            rate=request.flow.rate, seed=request.seed, network_id=network_id,
            constraints=request.constraints,
        ),
        CALL_TIMEOUT_S,
    )


async def _restart(
    server: Server, requests: list[EmbeddingRequest]
) -> tuple[dict[str, Any], int]:
    """Read a restarted server's default-shard stats, serve ``requests``,
    then drain it down. Returns (shard stats, accepted count)."""
    client = await _call(ServiceClient.connect(server.host, server.port))
    try:
        stats = await _call(client.stats())
        accepted = sum([(await _submit(client, r)).accepted for r in requests])
        await _call(client.drain(shutdown=True))
    finally:
        await _close(client)
    return stats["shards"][DEFAULT_NETWORK_ID], accepted


def _restore(
    network: CloudNetwork, solver: str, seed: int, workdir: str
) -> tuple[EmbeddingEngine, float]:
    """Recovery from the default shard's log alone, timed cold."""
    started = time.perf_counter()
    restored, _ = EmbeddingEngine.restore(
        network, solver,
        shard_wal_path(os.path.join(workdir, "wal"), DEFAULT_NETWORK_ID), seed=seed,
    )
    return restored, time.perf_counter() - started


def _residual_clean(ledger: ReservationLedger) -> bool:
    """No link or VNF capacity is still marked used."""
    return not any(ledger.state.used_links()) and not any(ledger.state.used_vnfs())


def _report(kind: str, solver: str, seed: int, **body: Any) -> dict[str, Any]:
    return {
        "format": f"repro.dag-sfc/bench-{kind}", "version": 1,
        "solver": solver, "seed": seed, **body,
    }


# -- the trace walk (shared with the shards drill), then the in-process fault drills --


@dataclass
class TraceWalk:
    """One walk of a trace, in order: its shard steps (as :meth:`ShardTick.step`
    keyword arguments), its submit outcomes and every repair notice."""

    steps: list[dict[str, Any]] = field(default_factory=list)
    outcomes: list[SubmitOutcome] = field(default_factory=list)
    notices: list[dict[str, Any]] = field(default_factory=list)

    def summary(self) -> dict[str, Any]:
        accepted = sum(1 for o in self.outcomes if o.accepted)
        rejects = Counter(o.code for o in self.outcomes if not o.accepted and o.code is not None)
        return {
            "submitted": len(self.outcomes),
            "accepted": accepted,
            "rejects_by_code": dict(sorted(rejects.items())),
        }


async def _walk_trace(
    client: ServiceClient, trace: ArrivalTrace, *, rng: int, network_id: str | None = None,
    constraints: ConstraintSet = ConstraintSet.EMPTY, after_op: Callable[[], None] = lambda: None,
) -> TraceWalk:
    """Serve ``trace`` one request (so one shard step) at a time, in
    :meth:`~repro.sim.trace.ArrivalTrace.schedule` order: release the step's
    departures still active (accepted, no eviction notice: a step's notices
    precede its reply), then submit its arrivals with seeds drawn from ``rng``."""
    gen = as_generator(rng)
    walk = TraceWalk()
    active: set[int] = set()

    def settle() -> None:
        while not client.notifications.empty():
            note = client.notifications.get_nowait()
            walk.notices.append(note)
            if note["status"] == "evicted":
                active.discard(int(note["request_id"]))
        after_op()

    for departing, arriving in trace.schedule():
        for rid in [rid for rid in departing if rid in active]:
            active.discard(rid)
            walk.steps.append({"releases": [rid]})
            await _call(client.release(rid, network_id=network_id))
            settle()
        for event in arriving:
            request = replace(event.request, seed=int(gen.integers(2**31)), constraints=constraints)
            walk.steps.append({"submits": [(request, request.seed)]})
            outcome = await _submit(client, request, network_id)
            walk.outcomes.append(outcome)
            if outcome.accepted:
                active.add(request.request_id)
            settle()
    return walk


@dataclass(frozen=True)
class FaultSetup:
    """One in-process fault-injection experiment."""

    network: NetworkConfig
    fault: FaultSpec
    trace_steps: int = 80
    #: ``--constraint`` specs attached to every submission (``()`` =
    #: unconstrained); repairs then re-validate against the same rules.
    constraints: tuple[str, ...] = ()


#: seed salt of the fault-drill streams (network, fault script, trace, solve seeds).
_FAULT_SALT = 0xC405
_FAULT_COUNTERS = (
    "faults_injected", "recoveries", "repairs_rerouted", "repairs_reembedded", "evictions",
)


def _fault_drill(name: str, *, solver: str, seed: int) -> dict[str, Any]:
    setup = _FAULT_SETUPS[name]
    streams = [trial_seed(seed, index, salt=_FAULT_SALT) for index in range(4)]
    network = generate_network(setup.network, rng=streams[0])
    script = generate_fault_script(setup.fault, network, rng=streams[1])
    trace = generate_trace(
        steps=setup.trace_steps, n_nodes=setup.network.size,
        n_vnf_types=setup.network.n_vnf_types, sfc=SfcConfig(),
        arrival_probability=0.9, mean_hold=40.0, rng=streams[2],
    )
    config = ServiceConfig(solver=solver, seed=seed, fault_script=script)
    # The ledger after every operation, folded into one digest per side.
    served_trail, trail = hashlib.sha256(), hashlib.sha256()

    async def serve() -> tuple[EmbeddingEngine, TraceWalk]:
        async with EmbeddingServer(network, config) as server:
            engine = server.shard_tick().engine
            async with await ServiceClient.connect(*server.address) as client:
                walk = await _walk_trace(
                    client, trace, rng=streams[3],
                    constraints=parse_constraint_args(setup.constraints),
                    after_op=lambda: served_trail.update(engine.ledger_fingerprint().encode()),
                )
        return engine, walk

    started = time.perf_counter()
    engine, walk = asyncio.run(serve())
    duration_s = time.perf_counter() - started
    repair_s = p50_p95_max(engine.repair_times())
    clean = engine.active_count() == 0 and _residual_clean(engine.ledger)

    # The oracle: the same operations and seeds, one in-process step each.
    oracle = EmbeddingEngine(generate_network(setup.network, rng=streams[0]), solver, seed=seed)
    tick = ShardTick(oracle, fault_script=script)
    repairs: list[tuple[Any, ...]] = []
    for step in walk.steps:
        for o in tick.step(**step).repairs:
            repairs.append((o.request_id, o.action.value, o.detail, o.old_cost, o.new_cost))
        trail.update(oracle.ledger_fingerprint().encode())
    keys = ("request_id", "status", "detail", "old_cost", "new_cost")
    replay_match = (
        trail.digest() == served_trail.digest()
        and oracle.counters == engine.counters
        and repairs == [tuple(note[k] for k in keys) for note in walk.notices]
    )

    counters = engine.counters
    repaired = counters["repairs_rerouted"] + counters["repairs_reembedded"]
    repairs_total = repaired + counters["evictions"]
    summary = walk.summary()
    accepted = summary["accepted"]
    cost_delta, total_cost = counters["repair_cost_delta"], counters["total_cost_accepted"]
    return _report(
        "faults", solver, seed,
        scenario=name,
        duration_s=round(duration_s, 3),
        **summary,
        **{key: int(counters[key]) for key in _FAULT_COUNTERS},
        survival_rate=round(1.0 - counters["evictions"] / accepted if accepted else 1.0, 6),
        repair_success_rate=round(repaired / repairs_total if repairs_total else 1.0, 6),
        repair_cost_delta=round(cost_delta, 3),
        repair_cost_overhead=round(cost_delta / total_cost if total_cost > 0 else 0.0, 6),
        time_to_repair_ms=(
            {q: round(s * 1e3, 3) for q, s in repair_s.items()} if repair_s else None
        ),
        notifications=len(walk.notices),
        ledger_trail=served_trail.hexdigest(),
        replay_match=replay_match,
        residual_clean=clean,
        ok=repairs_total > 0 and clean and replay_match,
    )


# -- durability: kill -9 + recovery from the log, then standby promotion ------------

_DURABLE_NET = NetworkConfig(
    size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
    vnf_capacity=4.0, link_capacity=4.0,
)


async def _submit_until_kill(
    server: Server, requests: list[EmbeddingRequest], kill_after: int
) -> list[int]:
    """Submit sequentially; SIGKILL the server once ``kill_after`` accepts
    are acknowledged. Returns the acknowledged-accepted request ids."""
    acked: list[int] = []
    client = await _call(ServiceClient.connect(server.host, server.port))
    try:
        for request in requests:
            if (await _submit(client, request)).accepted:
                acked.append(request.request_id)
            if len(acked) >= kill_after:
                server.kill()
                break
    finally:
        await _close(client)
    return acked


def _durability_crash(*, solver: str, seed: int, workdir: str) -> dict[str, Any]:
    network = generate_network(_DURABLE_NET, rng=seed)
    command = _wal_serve_command(_DURABLE_NET, workdir, solver, seed)
    with served(command, workdir, "crash") as server:
        acked = asyncio.run(
            _submit_until_kill(server, _requests(network, 24, seed=seed + 100), kill_after=8)
        )
    restored, recovery_time_s = _restore(network, solver, seed, workdir)
    lost = [rid for rid in acked if not restored.is_active(rid)]
    fingerprint = restored.ledger_fingerprint()

    # The service itself must come back to the same state and keep going.
    second_burst = _requests(network, 8, seed=seed + 200, first_id=100)
    with served(command, workdir, "restart") as server:
        shard, second_accepted = asyncio.run(_restart(server, second_burst))
    return {
        "acked_accepts": len(acked),
        "lost_commits": len(lost),
        "lost_request_ids": lost,
        "recovery_time_s": recovery_time_s,
        "recovered_active": restored.active_count(),
        "ledger_fingerprint": fingerprint,
        "restart_fingerprint_match": shard["ledger_fingerprint"] == fingerprint,
        "restart_resumed_active": shard["active"],
        "second_burst_accepted": second_accepted,
    }


def _durability_promotion(*, solver: str, seed: int, workdir: str) -> dict[str, Any]:
    network = generate_network(_DURABLE_NET, rng=seed + 1)
    batch1 = _requests(network, 12, seed=seed + 300)
    batch2 = _requests(network, 8, seed=seed + 400, first_id=100)
    wal_path = os.path.join(workdir, "promotion.wal")
    primary = EmbeddingEngine(network, solver, seed=seed)
    primary.attach_wal_file(wal_path, network_id=DEFAULT_NETWORK_ID)
    twin = EmbeddingEngine(network, solver, seed=seed)
    tick = ShardTick(primary)
    tick.standby = StandbyEngine(network, solver, wal_path, seed=seed)

    for request in batch1:
        primary.submit(request, rng=request.seed)
        twin.submit(request, rng=request.seed)
    for rid in (batch1[0].request_id, batch1[3].request_id):
        if primary.is_active(rid):
            primary.release(rid)
            twin.release(rid)
    event = FaultEvent(time=0, action=FaultAction.FAIL, target=FaultTarget.node(5))
    primary.apply_fault(event)
    twin.apply_fault(event)
    assert primary.wal is not None
    primary.wal.sync()
    # One more decision the primary never fsyncs (and thus never acks):
    # the fail-over must discard it, not replay it.
    unacked = _requests(network, 1, seed=seed + 500, first_id=900)[0]
    primary.submit(unacked, rng=unacked.seed)

    # Fail-over: the primary "dies" with that record still buffered; the
    # standby catches up from the synced log and takes over.
    started = time.perf_counter()
    promoted = tick.promote()
    promotion_time_s = time.perf_counter() - started

    identical = promoted.ledger_fingerprint() == twin.ledger_fingerprint()
    for request in batch2:
        ours = promoted.submit(request, rng=request.seed)
        theirs = twin.submit(request, rng=request.seed)
        identical = identical and (
            ours.success == theirs.success
            and abs(ours.total_cost - theirs.total_cost) < 1e-9
        )
    fingerprint_match = promoted.ledger_fingerprint() == twin.ledger_fingerprint()
    unacked_discarded = not promoted.is_active(unacked.request_id)
    promoted.detach_wal()
    return {
        "promotion_time_s": promotion_time_s,
        "unacked_discarded": unacked_discarded,
        "applied_before_takeover": promoted.wal_applied_seq,
        "decisions_identical": identical,
        "fingerprint_match": fingerprint_match,
        "post_promotion_decisions": len(batch2),
        "active_after": promoted.active_count(),
    }


def _durability(*, solver: str, seed: int) -> dict[str, Any]:
    with tempfile.TemporaryDirectory(prefix="dagsfc-drill-") as workdir:
        crash = _durability_crash(solver=solver, seed=seed, workdir=workdir)
        promotion = _durability_promotion(solver=solver, seed=seed, workdir=workdir)
    return _report(
        "durability", solver, seed,
        network={k: getattr(_DURABLE_NET, k) for k in ("size", "connectivity", "n_vnf_types")},
        crash=crash,
        promotion=promotion,
        zero_loss=crash["lost_commits"] == 0,
        ok=crash["lost_commits"] == 0
        and crash["restart_fingerprint_match"]
        and promotion["decisions_identical"]
        and promotion["fingerprint_match"],
    )


# -- rebalance: live migration curve, then kill -9 after a migration ----------------

#: a tight substrate: capacities low enough that arrival order leaves
#: genuinely sub-optimal placements for the rebalancer to recover.
_TIGHT_NET = NetworkConfig(
    size=40, connectivity=4.0, n_vnf_types=6, deploy_ratio=0.5,
    vnf_capacity=2.0, link_capacity=2.0,
)
_REBALANCE = RebalanceConfig(max_moves=4, candidates=16, min_gain=0.001, cooldown=1)
#: a rebalance timer interval (steps) longer than any drill runs.
_NO_TIMER_INTERVAL = 10**6


def _rebalance_live(*, solver: str, seed: int, workdir: str, cycles: int = 10) -> dict[str, Any]:
    network = generate_network(_TIGHT_NET, rng=seed)
    wal_path = os.path.join(workdir, "live.wal")
    engine = EmbeddingEngine(network, solver, seed=seed)
    engine.attach_wal_file(wal_path, network_id=DEFAULT_NETWORK_ID)
    standby = StandbyEngine(network, solver, wal_path, seed=seed)

    # Fill, then release every other accept: the fragmentation pattern a
    # half-departed tenant population leaves behind.
    accepted = [
        r.request_id
        for r in _requests(network, 60, seed=seed + 100)
        if engine.submit(r, rng=r.seed).success
    ]
    for rid in accepted[::2]:
        engine.release(rid)
    assert engine.wal is not None
    engine.wal.sync()
    fragmentation_before = fragmentation_index(engine)

    rebalancer = Rebalancer(engine, _REBALANCE)
    curve: list[dict[str, Any]] = []
    moves_cum = 0
    recovered_cum = 0.0
    started = time.perf_counter()
    for _ in range(cycles):
        report = rebalancer.run_cycle()
        engine.wal.sync()
        moves_cum += report.applied
        recovered_cum += report.cost_recovered
        curve.append(
            {
                "cycle": report.cycle, "applied": report.applied, "conflicts": report.conflicts,
                "cost_recovered": round(report.cost_recovered, 6), "moves_cum": moves_cum,
                "cost_recovered_cum": round(recovered_cum, 6),
            }
        )
    cycles_time_s = time.perf_counter() - started
    fingerprint = engine.ledger_fingerprint()

    # Offline replay: the log alone reproduces ledger + move counters.
    restored, _ = EmbeddingEngine.restore(network, solver, wal_path, seed=seed)
    # Fail-over: a standby that tailed the log takes over mid-defrag.
    promoted = standby.promote(attach_writer=False)
    engine.detach_wal()
    return {
        "accepted": len(accepted),
        "cycles": cycles,
        "cycles_time_s": cycles_time_s,
        "moves_made": moves_cum,
        "conflicts": int(engine.rebalance_counters["migrations_conflicted"]),
        "cost_recovered": round(recovered_cum, 6),
        "fragmentation_before": round(fragmentation_before, 6),
        "fragmentation_after": round(fragmentation_index(engine), 6),
        "curve": curve,
        "ledger_fingerprint": fingerprint,
        "replay_fingerprint_match": restored.ledger_fingerprint() == fingerprint,
        "replay_counters_match": restored.rebalance_counters["migrations_applied"]
        == engine.rebalance_counters["migrations_applied"],
        "standby_fingerprint_match": promoted.ledger_fingerprint() == fingerprint,
    }


async def _churn_until_migration(
    server: Server, requests: list[EmbeddingRequest]
) -> tuple[list[int], list[int], int]:
    """Fill the substrate, release every other accept, run rebalance cycles
    until one applies a migration, then SIGKILL the server. Departures after
    the fill (not interleaved with arrivals, which backfill them) leave the
    fragmented holes the rebalancer exists to recover. Every cycle is a
    ``rebalance`` verb call made after the releases, so the decisions and
    the cycles happen in the same order on any host.

    Returns (acked accepts, acked releases, migrations observed at kill).
    """
    released: list[int] = []
    migrations = 0
    client = await _call(ServiceClient.connect(server.host, server.port))
    try:
        acked = [r.request_id for r in requests if (await _submit(client, r)).accepted]
        for rid in acked[::2]:
            if await _call(client.release(rid)):
                released.append(rid)
        deadline = time.monotonic() + MIGRATION_WAIT_S
        for _ in range(MIGRATION_MAX_CYCLES):
            if time.monotonic() >= deadline:
                break
            reply = await _call(client.rebalance())
            migrations = int(reply["rebalance"]["migrations_applied"])
            if migrations >= 1:
                break
        server.kill()
    finally:
        await _close(client)
    return acked, released, migrations


def _rebalance_crash(*, solver: str, seed: int, workdir: str) -> dict[str, Any]:
    network = generate_network(_TIGHT_NET, rng=seed)
    # The timer interval outlasts the drill, so no timer cycle ever runs:
    # ``--rebalance`` only carries the min-gain and cooldown rails to the
    # cycles the ``rebalance`` verb runs.
    command = _wal_serve_command(
        _TIGHT_NET, workdir, solver, seed,
        "--rebalance", "--rebalance-interval", str(_NO_TIMER_INTERVAL),
        "--rebalance-min-gain", str(_REBALANCE.min_gain),
        "--rebalance-cooldown", str(_REBALANCE.cooldown),
    )
    with served(command, workdir, "crash") as server:
        acked, released, migrations = asyncio.run(
            _churn_until_migration(server, _requests(network, 60, seed=seed + 100))
        )
    restored, recovery_time_s = _restore(network, solver, seed, workdir)
    expected = set(acked) - set(released)
    actual = set(restored.active_ids())
    lost = sorted(expected - actual)
    duplicated = sorted(actual - expected)
    fingerprint = restored.ledger_fingerprint()
    replayed_migrations = int(restored.rebalance_counters["migrations_applied"])
    # Double-booked capacity would survive a full drain: release every
    # survivor and demand a pristine residual.
    for rid in list(restored.active_ids()):
        restored.release(rid)

    with served(command, workdir, "restart") as server:
        shard, _ = asyncio.run(_restart(server, []))
    return {
        "acked_accepts": len(acked),
        "acked_releases": len(released),
        "migrations_at_kill": migrations,
        "replayed_migrations": replayed_migrations,
        "lost_reservations": len(lost),
        "lost_request_ids": lost,
        "duplicated_reservations": len(duplicated),
        "duplicated_request_ids": duplicated,
        "recovery_time_s": recovery_time_s,
        "residual_clean": _residual_clean(restored.ledger),
        "ledger_fingerprint": fingerprint,
        "restart_fingerprint_match": shard["ledger_fingerprint"] == fingerprint,
    }


def _rebalance(*, solver: str, seed: int) -> dict[str, Any]:
    with tempfile.TemporaryDirectory(prefix="dagsfc-drill-") as workdir:
        live = _rebalance_live(solver=solver, seed=seed, workdir=workdir)
        crash = _rebalance_crash(solver=solver, seed=seed, workdir=workdir)
    return _report(
        "rebalance", solver, seed,
        network={
            k: getattr(_TIGHT_NET, k)
            for k in ("size", "connectivity", "n_vnf_types", "vnf_capacity", "link_capacity")
        },
        live=live,
        crash=crash,
        ok=live["cost_recovered"] > 0 and live["moves_made"] > 0
        and live["replay_fingerprint_match"] and live["replay_counters_match"]
        and live["standby_fingerprint_match"] and crash["migrations_at_kill"] >= 1
        and crash["lost_reservations"] == crash["duplicated_reservations"] == 0
        and crash["residual_clean"] and crash["restart_fingerprint_match"],
    )


# -- shards: 2-shard serve with WAL, standbys, rebalance and chaos on net1; net0 is
# promoted, then takes one burst per constraint plugin ------------------------------

_SHARD_CONSTRAINTS = ("delay:budget=40", "affinity:spread=1", "zones:count=4,multiplier=2.0")


async def _burst(
    client: ServiceClient, network_id: str, seed: int, first_id: int = 0,
    constraint: str | None = None,
) -> dict[str, Any]:
    """One 60-step trace walked on one shard."""
    (shard,) = (s for s in client.hello["shards"] if s["network_id"] == network_id)
    trace = generate_trace(
        steps=60, n_nodes=int(shard["n_nodes"]), n_vnf_types=max(1, int(shard["n_vnf_types"])),
        sfc=SfcConfig(size=4), mean_hold=40.0, first_id=first_id, rng=seed,
    )
    constraints = parse_constraint_args([constraint] if constraint else None)
    walk = await _walk_trace(
        client, trace, rng=seed + 1, network_id=network_id, constraints=constraints
    )
    return walk.summary()


async def _shard_bursts(
    server: Server, seed: int
) -> tuple[dict[str, dict[str, Any]], str, dict[str, int], dict[str, int]]:
    """Bursts keyed ``network_id`` or ``network_id+constraint``, the reply
    type of the ``net0`` promotion between the first two bursts and the
    constraint bursts, the per-shard checkpoint seqs of the ``snapshot``
    taken before the drain, and each shard's rebalance cycle count then."""
    client = await _call(ServiceClient.connect(server.host, server.port))
    try:
        bursts = {nid: await _burst(client, nid, seed + s) for nid, s in (("net0", 6), ("net1", 4))}
        try:
            reply = await asyncio.wait_for(client.promote(network_id="net0"), CALL_TIMEOUT_S)
            promoted = reply["type"]
        except ServiceError as exc:
            promoted = f"error: {exc}"
        for index, constraint in enumerate(_SHARD_CONSTRAINTS, start=1):
            bursts[f"net0+{constraint}"] = await _burst(
                client, "net0", seed + 2 + 2 * index, 20000 * index, constraint
            )
        try:
            checkpoints = (await _call(client.snapshot()))["checkpoints"]
        except ServiceError:
            checkpoints = {}
        shards = (await _call(client.stats()))["shards"]
        cycles = {nid: shard["rebalance"]["cycles"] for nid, shard in sorted(shards.items())}
        await _call(client.drain(shutdown=True))
    finally:
        await _close(client)
    return bursts, promoted, checkpoints, cycles


def _shards(*, solver: str, seed: int) -> dict[str, Any]:
    with tempfile.TemporaryDirectory(prefix="dagsfc-drill-") as workdir:
        wal_dir = os.path.join(workdir, "wal")
        command = _serve_command(
            solver, seed, "--network-size", "40", "--shards", "2",
            "--wal", wal_dir, "--standby", "--rebalance", "--rebalance-interval", "5",
            "--chaos", "horizon=60,link=20,instance=30", "--chaos-shard", "net1",
        )
        with served(command, workdir, "bursts") as server:
            bursts, promoted, checkpoints, cycles = asyncio.run(_shard_bursts(server, seed))
            exit_code = server.wait()
        # Shards whose log holds a checkpoint record at the replied seq.
        found: list[str] = []
        for network_id, seq in sorted(checkpoints.items()):
            records = read_wal(shard_wal_path(wal_dir, network_id)).records
            if seq < len(records) and records[seq].type == "checkpoint":
                found.append(network_id)
    return _report(
        "shards", solver, seed,
        bursts=bursts,
        net0_promote=promoted,
        server_exit_code=exit_code,
        checkpoints=checkpoints,
        rebalance_cycles=cycles,
        ok=all(b["accepted"] > 0 for key, b in bursts.items() if key.startswith("net0"))
        and promoted == "promoted"
        and exit_code == 0
        and found == ["net0", "net1"]
        # Both shards reached the step timer (net0's count restarts at promotion).
        and sorted(nid for nid, count in cycles.items() if count >= 1) == ["net0", "net1"],
    )


# -- the registry, the runner, the report writer and the summary printer ------------


@dataclass(frozen=True)
class Drill:
    """One registered scenario: ``run(solver=, seed=)`` → report with ``ok``."""

    name: str
    description: str
    run: Callable[..., dict[str, Any]]
    default_seed: int


_SMOKE_FAULTS = FaultSpec(horizon=60, node_mtbf=20.0, link_mtbf=12.0, instance_mtbf=25.0)
_FAULT_SETUPS = {
    "smoke": FaultSetup(NetworkConfig(size=25, n_vnf_types=6), _SMOKE_FAULTS),
    "stress": FaultSetup(
        NetworkConfig(size=60, n_vnf_types=8),
        FaultSpec(horizon=200, node_mtbf=40.0, link_mtbf=25.0, instance_mtbf=50.0),
        trace_steps=250,
    ),
    "delay_budget": FaultSetup(
        NetworkConfig(size=25, n_vnf_types=6), _SMOKE_FAULTS, constraints=("delay:budget=7.0",)
    ),
}


DRILLS: dict[str, Drill] = {
    drill.name: drill
    for drill in (
        Drill("smoke", "in-process faults: small substrate, aggressive failures",
              partial(_fault_drill, "smoke"), 5),
        Drill("stress", "in-process faults: larger substrate, sustained churn",
              partial(_fault_drill, "stress"), 5),
        Drill("delay_budget", "smoke under a binding delay budget; repairs stay inside it or evict",
              partial(_fault_drill, "delay_budget"), 5),
        Drill("durability", "kill -9 a serve --wal, recover from the log; promote a standby",
              _durability, 1),
        Drill("rebalance", "live migration curve; kill -9 a serve --rebalance mid-defrag",
              _rebalance, 1),
        Drill("shards", "2-shard serve --standby --rebalance, chaos on net1, promote net0, "
              "then one net0 burst per constraint plugin", _shards, 5),
    )
}


def run_drill(name: str, *, solver: str = "MBBE", seed: int | None = None) -> dict[str, Any]:
    """Run one registered drill; an expired deadline yields ``ok: false``."""
    drill = DRILLS[name]
    seed = drill.default_seed if seed is None else seed
    try:
        return drill.run(solver=solver, seed=seed)
    except DrillTimeout as exc:
        return {
            "scenario": name, "solver": solver, "seed": seed, "ok": False,
            "failed_phase": exc.phase, "error": str(exc), "log_tail": exc.log_tail,
        }


def write_report(path: str, report: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scalars(doc: Mapping[str, Any], prefix: str = "") -> Iterator[tuple[str, Any]]:
    for key, value in doc.items():
        if isinstance(value, Mapping):
            yield from _scalars(value, f"{prefix}{key}.")
        elif not isinstance(value, list):
            yield f"{prefix}{key}", value


def format_summary(name: str, report: Mapping[str, Any]) -> str:
    """Every scalar field of the report (lists left to the JSON), or the
    failed phase with its server log tail, then the verdict."""
    lines = [f"drill {name} (solver {report['solver']}, seed {report['seed']})"]
    if "failed_phase" in report:
        lines.append(f"  {report['failed_phase']}: {report['error']}")
        lines.extend(f"    | {line}" for line in report["log_tail"])
    else:
        skip = {"format", "version", "solver", "seed", "scenario", "ok"}
        lines.extend(f"  {k}: {v}" for k, v in _scalars(report) if k not in skip)
    lines.append(f"  verdict: {'OK' if report['ok'] else 'FAILED'}")
    return "\n".join(lines)
