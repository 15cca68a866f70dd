#!/usr/bin/env python3
"""The embedding service end to end, in one process.

Starts a real `EmbeddingServer` on an ephemeral loopback port, connects the
real async client, and drives it with an open-loop replay of a generated
arrival trace — the same moving parts `dag-sfc serve` / `dag-sfc loadgen`
wire up across two processes (see docs/serving.md). Along the way it
snapshots the server's state, restarts a second server from the snapshot,
and shows that the restored residual capacity is identical.

Run:  python examples/serve_and_load.py
"""

import asyncio

from repro import NetworkConfig, SfcConfig, generate_network
from repro.service import (
    EmbeddingServer,
    ServiceClient,
    ServiceConfig,
    load_snapshot,
)
from repro.service.loadgen import run_load
from repro.engine.state_store import snapshot_to_dict
from repro.sim.trace import generate_trace

SEED = 23
SNAPSHOT = "service_snapshot_example.json"


async def main() -> None:
    cfg = NetworkConfig(
        size=60, connectivity=5.0, n_vnf_types=8, deploy_ratio=0.4,
        vnf_capacity=4.0, link_capacity=4.0,
    )
    network = generate_network(cfg, rng=SEED)
    config = ServiceConfig(
        solver="MBBE", batch_size=8, snapshot_path=SNAPSHOT, seed=SEED
    )

    async with EmbeddingServer(network, config) as server:
        host, port = server.address
        print(f"server on {host}:{port} — {config.solver}")

        async with await ServiceClient.connect(host, port) as client:
            trace = generate_trace(
                steps=120, n_nodes=cfg.size, n_vnf_types=cfg.n_vnf_types,
                sfc=SfcConfig(size=4), arrival_probability=0.5,
                mean_hold=40.0, rng=SEED + 1,
            )
            print(f"replaying {len(trace)} arrivals (open loop, 10 ms/step)\n")
            report = await run_load(
                client, trace, mode="open", tick_s=0.01, release=False,
                rng=SEED + 2,
            )
            print(report.format_table())

            reply = await client.snapshot()
            print(f"\nsnapshot: {reply['active']} active reservations -> {reply['path']}")
        before = snapshot_to_dict(server.ledger, counters={})

    # "Crash", then resume a fresh server from the on-disk snapshot.
    ledger, counters = load_snapshot(SNAPSHOT, network)
    async with EmbeddingServer(network, config, ledger=ledger, counters=counters) as server:
        after = snapshot_to_dict(server.ledger, counters={})
        same = after["reservations"] == before["reservations"]
        print(f"restarted from snapshot: {len(server.ledger)} reservations restored, "
              f"residual state identical: {same}")
        assert same


if __name__ == "__main__":
    asyncio.run(main())
