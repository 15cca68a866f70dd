#!/usr/bin/env python3
"""Online request arrivals: acceptance ratio under load, per algorithm.

A provider-side view the paper's single-flow model feeds into: SFC
requests arrive over time (Bernoulli arrivals per step), hold their
resources for a geometric number of steps, then depart. Every algorithm
replays the same arrival trace against its own engine over the same
network. Cost-aware embedding (MBBE) keeps real-paths short, so under load
it not only bills less per request — it also leaves more bandwidth for
future arrivals and accepts more of them.

Run:  python examples/online_arrivals.py
"""

from repro import NetworkConfig, SfcConfig, generate_network, make_solver
from repro.engine import EmbeddingEngine
from repro.sim.trace import generate_trace, replay

SEED = 41
STEPS = 300
ARRIVAL_P = 0.5  # arrival probability per step
MEAN_HOLD = 60  # steps a request stays embedded
CLOUD = NetworkConfig(
    size=80, connectivity=5.0, n_vnf_types=8, deploy_ratio=0.4,
    vnf_capacity=4.0, link_capacity=4.0,
)


def main() -> None:
    network = generate_network(CLOUD, rng=7)
    trace = generate_trace(
        steps=STEPS,
        n_nodes=CLOUD.size,
        n_vnf_types=CLOUD.n_vnf_types,
        sfc=SfcConfig(size=4),
        arrival_probability=ARRIVAL_P,
        mean_hold=MEAN_HOLD,
        rng=SEED,
    )
    print(
        f"online arrivals: {STEPS} steps, p(arrival)={ARRIVAL_P}, mean hold {MEAN_HOLD}, "
        f"{CLOUD.size}-node cloud, offered load ≈ {trace.offered_load:.1f}"
    )
    print(f"  {'algorithm':10s} {'acceptance':>10s} {'mean cost':>10s}")
    ratios = {}
    for name in ("RANV", "MINV", "MBBE"):
        engine = EmbeddingEngine(network, make_solver(name))
        replay(trace, engine, rng=SEED + 1)
        accepted = engine.counters["accepted"]
        mean_cost = engine.counters["total_cost_accepted"] / accepted if accepted else 0.0
        ratios[name] = engine.stats()["acceptance_ratio"]
        print(f"  {name:10s} {ratios[name]:10.1%} {mean_cost:10.1f}")
    assert ratios["MBBE"] >= ratios["MINV"] - 0.02, "MBBE should pack at least as well"


if __name__ == "__main__":
    main()
