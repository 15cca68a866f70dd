#!/usr/bin/env python3
"""The embedding service end to end, in one process.

Starts a real `EmbeddingServer` on an ephemeral loopback port, connects the
real async client, and drives it with an open-loop replay of a generated
arrival trace — the same moving parts `dag-sfc serve` / `dag-sfc loadgen`
wire up across two processes (see docs/serving.md). The server writes one
write-ahead log per shard into a temporary directory; the `snapshot` verb
appends a checkpoint to it, and a second server restarted through
`restore_shards` (the last checkpoint plus the records after it) shows
that the restored residual capacity is identical.

Run:  python examples/serve_and_load.py
"""

import asyncio
import tempfile

from repro import NetworkConfig, SfcConfig, generate_network
from repro.engine import DEFAULT_NETWORK_ID, restore_shards
from repro.service import EmbeddingServer, ServiceClient, ServiceConfig
from repro.service.loadgen import run_load
from repro.sim.trace import generate_trace

SEED = 23


async def main(wal_dir: str) -> None:
    cfg = NetworkConfig(
        size=60, connectivity=5.0, n_vnf_types=8, deploy_ratio=0.4,
        vnf_capacity=4.0, link_capacity=4.0,
    )
    network = generate_network(cfg, rng=SEED)
    config = ServiceConfig(solver="MBBE", batch_size=8, wal_dir=wal_dir, seed=SEED)

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
            seq = reply["checkpoints"][DEFAULT_NETWORK_ID]
            print(f"\nsnapshot: {reply['active']} active reservations -> "
                  f"checkpoint at WAL seq {seq}")
        before = server.shard_tick().engine.ledger_fingerprint()

    # "Crash", then resume a fresh server from the shard's log.
    engines, leftovers = restore_shards(
        {DEFAULT_NETWORK_ID: network}, config.solver, wal_dir, seed=SEED
    )
    async with EmbeddingServer(engines, config, transport_counters=leftovers) as server:
        same = server.shard_tick().engine.ledger_fingerprint() == before
        print(f"restarted from the WAL: {len(server.ledger)} reservations restored, "
              f"residual state identical: {same}")
        assert same


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="dagsfc-example-") as wal_dir:
        asyncio.run(main(wal_dir))
