"""Server ≡ in-process step: one phase order, two drivers, one outcome.

Random interleavings of submit, release, injected fault and the
``rebalance`` verb are driven through a live server (``batch_size=1``,
sequential awaits) and, in lockstep, through :meth:`ShardTick.step` on an
in-process engine with the same seeds. Every decision, release verdict,
repair outcome and rebalance cycle must agree, and so must the ledger
fingerprints and the engine counters: the dispatcher adds transport, never
a decision of its own. With a fault script and a rebalance timer the two
still agree, because both run on the shard's step count, not on the host's
clock.

Plain ``asyncio.run`` per example — no asyncio pytest plugin is assumed.
"""

import asyncio

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.engine import (
    EmbeddingEngine,
    EmbeddingRequest,
    RebalanceConfig,
    ShardTick,
)
from repro.faults.model import FaultAction, FaultEvent, FaultScript, FaultTarget
from repro.network.generator import generate_network
from repro.service import EmbeddingServer, ServiceClient, ServiceConfig
from repro.sfc.generator import generate_dag_sfc
from repro.utils.rng import as_generator

NETWORK = NetworkConfig(
    size=12, connectivity=3.0, n_vnf_types=4, deploy_ratio=0.6,
    vnf_capacity=2.0, link_capacity=2.0,
)
N_REQUESTS = 8


def make_requests() -> list[EmbeddingRequest]:
    gen = as_generator(41)
    requests = []
    for rid in range(N_REQUESTS):
        dag = generate_dag_sfc(SfcConfig(size=3), NETWORK.n_vnf_types, rng=gen)
        src, dst = (int(v) for v in gen.choice(NETWORK.size, size=2, replace=False))
        requests.append(
            EmbeddingRequest(
                rid, dag, src, dst, FlowConfig(rate=1.0), seed=int(gen.integers(2**31))
            )
        )
    return requests


def fault_pool(network) -> list[FaultEvent]:
    targets = [FaultTarget.node(node) for node in (2, 5, 8)]
    targets += [FaultTarget.link(*link.key) for link in list(network.graph.links())[:3]]
    return [
        FaultEvent(time=0, action=action, target=target)
        for target in targets
        for action in (FaultAction.FAIL, FaultAction.RECOVER)
    ]


def timed_script(network) -> FaultScript:
    """Fail/recover events spread over the first ten steps."""
    node = FaultTarget.node(5)
    link = FaultTarget.link(*next(iter(network.graph.links())).key)
    fail, recover = FaultAction.FAIL, FaultAction.RECOVER
    timeline = (
        (1, fail, node), (2, fail, link), (4, recover, node),
        (6, recover, link), (7, fail, node), (9, recover, node),
    )
    return FaultScript(
        events=tuple(FaultEvent(time=t, action=a, target=x) for t, a, x in timeline),
        horizon=10,
    )


#: a timer cycle every other step, with rails loose enough to move flows.
TIMER = RebalanceConfig(interval=2, min_gain=0.001, cooldown=1)


def repairs_of(notes: list[dict]) -> list[tuple]:
    return [
        (n["request_id"], n["status"], n["detail"], n["old_cost"], n["new_cost"])
        for n in notes
    ]


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, N_REQUESTS - 1)),
        st.tuples(st.just("release"), st.integers(0, N_REQUESTS - 1)),
        st.tuples(st.just("fault"), st.integers(0, 11)),
        st.tuples(st.just("rebalance"), st.just(0)),
    ),
    min_size=1,
    max_size=14,
)


async def drive_both(ops, *, timed: bool = False) -> None:
    network = generate_network(NETWORK, rng=5)
    requests = make_requests()
    faults = fault_pool(network)
    script = timed_script(network) if timed else None
    rebalance = TIMER if timed else None
    config = ServiceConfig(batch_size=1, seed=3, fault_script=script, rebalance=rebalance)
    engine = EmbeddingEngine(generate_network(NETWORK, rng=5), config.solver, seed=config.seed)
    tick = ShardTick(engine, fault_script=script, rebalance=rebalance)
    async with EmbeddingServer(network, config) as server:
        served = server.shard_tick().engine
        async with await ServiceClient.connect(*server.address) as client:
            for kind, arg in ops:
                if kind == "submit":
                    request = requests[arg]
                    if engine.is_active(request.request_id):
                        continue  # the server would shed it as a duplicate
                    outcome = await client.submit(
                        request.request_id, request.dag, request.source,
                        request.dest, rate=request.rate, seed=request.seed,
                    )
                    result = tick.step(submits=[(request, request.seed)])
                    (decision,) = result.decisions
                    assert (outcome.accepted, outcome.decision_index, outcome.code) == (
                        decision.accepted, decision.decision_index,
                        None if decision.accepted else decision.code,
                    )
                    assert outcome.total_cost == decision.total_cost
                elif kind == "release":
                    ok = await client.release(arg)
                    result = tick.step(releases=[arg])
                    (error,) = result.released
                    assert ok == (error is None)
                elif kind == "fault":
                    server.inject_fault(faults[arg])
                    await client.stats()  # the stats hold lands after the fault's step
                    result = tick.step(faults=[faults[arg]])
                else:
                    reply = await client.rebalance()
                    result = tick.step(cycles=1)
                    ((report, stats),) = result.cycles
                    assert reply["cycle"] == report.to_dict()
                    assert reply["rebalance"] == stats
                # A step's notifications reach the client before its reply.
                notes = []
                while not client.notifications.empty():
                    notes.append(client.notifications.get_nowait())
                assert repairs_of(notes) == [
                    (o.request_id, o.action.value, o.detail, o.old_cost, o.new_cost)
                    for o in result.repairs
                ]
                assert served.ledger_fingerprint() == engine.ledger_fingerprint()
                if timed:
                    inspected = await client.rebalance(inspect=True)
                    assert inspected["rebalance"] == tick.rebalancer.stats()
            assert served.counters == engine.counters
            assert served.rebalance_counters == engine.rebalance_counters


class TestServerMatchesStep:
    @given(ops=OPS)
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_random_interleavings_decide_identically(self, ops):
        asyncio.run(drive_both(ops))

    @given(ops=OPS)
    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_fault_script_and_timer_run_on_step_time(self, ops):
        asyncio.run(drive_both(ops, timed=True))
