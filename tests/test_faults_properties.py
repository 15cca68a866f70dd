"""Property-based tests: fail → repair → recover conserves capacity.

The repair ladder's load-bearing invariant is bookkeeping-shaped, so it is
tested the bookkeeping way: random substrates, random arrival traces and
random MTBF/MTTR fault scripts replayed end to end, after which releasing
every surviving request must leave the residual state exactly pristine —
no leaked link rate, no leaked instance rate, regardless of how many
reroutes, pinned re-embeds and evictions happened along the way. One
hypothesis property drives the paper's four algorithms; a fixed-seed
sweep extends the same check to every solver in the registry.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import FlowConfig, NetworkConfig, SfcConfig
from repro.engine import EmbeddingEngine, EmbeddingRequest, RebalanceConfig, ShardTick
from repro.exceptions import IlpUnavailableError
from repro.faults.model import FaultSpec, FaultState, generate_fault_script
from repro.network.generator import generate_network
from repro.sfc.generator import generate_dag_sfc
from repro.sim.trace import generate_trace, replay
from repro.solvers import available_solvers, make_solver
from repro.utils.rng import as_generator

# Whole chaos replays per example: keep the example count modest.
CHAOS = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

PAPER_ALGORITHMS = ("RANV", "MINV", "BBE", "MBBE")


def run_chaos_replay(algorithm: str, seed: int, intensity: float) -> EmbeddingEngine:
    """One full fault-injected replay on a small random instance."""
    cfg = NetworkConfig(
        size=14,
        connectivity=3.0,
        n_vnf_types=4,
        deploy_ratio=0.6,
        vnf_capacity=60.0,
        link_capacity=60.0,
    )
    net = generate_network(cfg, rng=seed)
    steps = 25
    trace = generate_trace(
        steps=steps,
        n_nodes=cfg.size,
        n_vnf_types=cfg.n_vnf_types,
        sfc=SfcConfig(size=2),
        mean_hold=8.0,
        rng=seed + 1,
    )
    spec = FaultSpec(
        horizon=steps,
        node_mtbf=18.0 / intensity,
        link_mtbf=12.0 / intensity,
        instance_mtbf=15.0 / intensity,
        node_mttr=3.0,
        link_mttr=3.0,
        instance_mttr=3.0,
    )
    script = generate_fault_script(spec, net, rng=seed + 2)
    engine = EmbeddingEngine(net, make_solver(algorithm))
    replay(trace, engine, faults=script, rng=seed + 3)
    return engine


def assert_capacity_conserved(engine: EmbeddingEngine) -> None:
    """Releasing every survivor must zero out the residual bookkeeping."""
    counters = engine.counters
    active = len(list(engine.active_ids()))
    assert engine.active_count() == active
    assert counters["evictions"] + counters["departed"] + active == counters["accepted"]
    for rid in list(engine.active_ids()):
        engine.release(rid)
    leaked_links = list(engine.ledger.state.used_links())
    leaked_vnfs = list(engine.ledger.state.used_vnfs())
    assert leaked_links == [], f"leaked link rate after chaos: {leaked_links}"
    assert leaked_vnfs == [], f"leaked instance rate after chaos: {leaked_vnfs}"


class TestRepairConservesCapacity:
    @given(
        seed=st.integers(0, 100_000),
        algorithm=st.sampled_from(PAPER_ALGORITHMS),
        intensity=st.sampled_from((0.5, 1.0, 2.0)),
    )
    @CHAOS
    def test_random_fault_scripts_conserve_capacity(self, seed, algorithm, intensity):
        engine = run_chaos_replay(algorithm, seed, intensity)
        assert_capacity_conserved(engine)

    @pytest.mark.parametrize("algorithm", available_solvers())
    def test_every_registry_solver_conserves_capacity(self, algorithm):
        try:
            engine = run_chaos_replay(algorithm, seed=29, intensity=1.0)
        except IlpUnavailableError:
            pytest.skip(f"{algorithm} backend unavailable in this environment")
        assert_capacity_conserved(engine)

    @given(seed=st.integers(0, 100_000))
    @CHAOS
    def test_generated_scripts_always_end_pristine(self, seed):
        # The generator's contract: every timeline closes with a recovery,
        # so a fully-applied script leaves no element dead.
        cfg = NetworkConfig(size=12, connectivity=3.0, n_vnf_types=4, deploy_ratio=0.5)
        net = generate_network(cfg, rng=seed)
        spec = FaultSpec(horizon=30, node_mtbf=9.0, link_mtbf=7.0, instance_mtbf=11.0)
        script = generate_fault_script(spec, net, rng=seed)
        state = FaultState()
        for event in script:
            state.apply(event)
        assert not state.any_dead


class TestMigrationConservesCapacity:
    """Satellite 3: commit/release/migrate interleavings conserve capacity.

    Rebalance cycles interleave with arrivals and departures in arbitrary
    orders; since every applied migration is a release-old + reserve-new
    transaction on the same ledger, releasing the survivors afterwards must
    still zero out the residual bookkeeping — no leaked rate on either the
    vacated or the newly reserved elements, conflicts included.
    """

    #: eager enough that migrations actually fire on the tight substrate.
    _REBALANCE = RebalanceConfig(max_moves=2, candidates=4, min_gain=0.001, cooldown=0)

    @classmethod
    def _tight_instance(cls, seed: int) -> tuple[ShardTick, dict[int, EmbeddingRequest]]:
        cfg = NetworkConfig(
            size=14,
            connectivity=3.0,
            n_vnf_types=4,
            deploy_ratio=0.6,
            vnf_capacity=2.0,
            link_capacity=2.0,
        )
        net = generate_network(cfg, rng=seed)
        gen = as_generator(seed + 1)
        requests = {}
        for rid in range(10):
            dag = generate_dag_sfc(SfcConfig(size=2), cfg.n_vnf_types, rng=gen)
            src, dst = (int(v) for v in gen.choice(cfg.size, size=2, replace=False))
            requests[rid] = EmbeddingRequest(
                request_id=rid, dag=dag, source=src, dest=dst,
                flow=FlowConfig(rate=1.0), seed=int(gen.integers(2**31)),
                arrival_index=rid,
            )
        engine = EmbeddingEngine(net, make_solver("MBBE"))
        return ShardTick(engine, rebalance=cls._REBALANCE), requests

    @given(
        seed=st.integers(0, 100_000),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("submit"), st.integers(0, 9)),
                st.tuples(st.just("release"), st.integers(0, 9)),
                st.tuples(st.just("rebalance"), st.just(0)),
            ),
            max_size=20,
        ),
    )
    @CHAOS
    def test_migrate_interleavings_conserve_capacity(self, seed, ops):
        tick, requests = self._tight_instance(seed)
        engine = tick.engine
        for kind, arg in ops:
            if kind == "submit":
                if not engine.is_active(arg):
                    tick.step(submits=[(requests[arg], requests[arg].seed)])
            elif kind == "release":
                if engine.is_active(arg):
                    tick.step(releases=[arg])
            else:
                tick.step(cycles=1)
        assert_capacity_conserved(engine)
