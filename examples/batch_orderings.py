#!/usr/bin/env python3
"""Batch admission: does the order you embed requests in matter?

Twenty requests, one capacity-tight network, four admission orders, same
solver (MBBE). Under pressure, packing small/short requests first strands
less capacity — the classic bin-packing intuition, measured.

Run:  python examples/batch_orderings.py
"""

import numpy as np

from repro import FlowConfig, NetworkConfig, SfcConfig, generate_dag_sfc, generate_network, MbbeEmbedder
from repro.engine import EmbeddingRequest
from repro.sim.batch import ORDERINGS, embed_batch

SEED = 53


def main() -> None:
    cfg = NetworkConfig(
        size=60, connectivity=4.5, n_vnf_types=8, deploy_ratio=0.3,
        vnf_capacity=2.0, link_capacity=3.0,
    )
    net = generate_network(cfg, rng=SEED)
    rng = np.random.default_rng(SEED + 1)
    requests = []
    for i in range(20):
        size = int(rng.integers(2, 7))
        dag = generate_dag_sfc(SfcConfig(size=size), n_vnf_types=8, rng=rng)
        src, dst = (int(v) for v in rng.choice(cfg.size, size=2, replace=False))
        requests.append(EmbeddingRequest(i, dag, src, dst, FlowConfig(rate=1.0)))

    print(f"batch of {len(requests)} requests on a tight 60-node cloud (MBBE):")
    print(f"  {'ordering':16s} {'accepted':>9s} {'total cost':>11s}")
    for name in sorted(ORDERINGS):
        out = embed_batch(net, requests, MbbeEmbedder(), ordering=name)
        print(
            f"  {name:16s} {len(out.accepted_ids):>6d}/20 {out.total_cost:>11.1f}"
        )


if __name__ == "__main__":
    main()
