"""The benchmark's metric vocabulary: names, units, directions, bounds.

``BENCHMARK.json`` at the repository root lists exactly these metrics
(the benchmark's tests hold the two together). Each per-layer metric
also records which end-to-end metric it should move, and on which
workload, so a change to one layer states its prediction up front.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "END_TO_END", "PER_LAYER"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: float | None = None
    #: per-layer only: the end-to-end metric and workload it should move.
    moves: str = ""


#: Bounds sit at about three times the quartile spread (over median) that
#: seeds showed on a shared 2-vCPU host, capped at 0.25; the timings swing
#: with the host there, so theirs sit at the cap.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_rps", "1/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p90_ms", "ms", "lower", 0.25),
    Metric("acceptance_ratio", "ratio", "higher", 0.06),
    Metric("mean_cost", "cost", "lower", 0.02),
    Metric("server_peak_rss_mb", "MiB", "lower", 0.05),
)

_VIEW = (
    "throughput_rps and latency_p50_ms on solver_dag6 (two view builds per "
    "decision) and on the ungated paper_n500, where views take ~60% of busy "
    "time; little shift on small_n40_open"
)
_SOLVER = (
    "throughput_rps and latency on solver_dag6, then paper_n500, with "
    "acceptance_ratio and mean_cost unchanged"
)
_CONSTRAINTS = "latency_p90_ms on solver_dag6; absent (0) on the other workloads"
_PATH = (
    "latency_p50_ms, latency_p90_ms and failed operations on small_n40_open; "
    "flat on solver_dag6"
)
_SHARE = "the end-to-end metrics of the workload where this layer's share is largest"

PER_LAYER = (
    Metric("engine.view_ms", "ms", "lower", moves=_VIEW),
    Metric("engine.view_calls", "count", "lower", moves=_VIEW),
    Metric("engine.commit_ms", "ms", "lower", moves=_PATH),
    Metric("engine.release_ms", "ms", "lower", moves=_PATH),
    Metric("solvers.embed_ms", "ms", "lower", moves=_SOLVER),
    Metric("solvers.bfs_rings_calls", "count", "lower", moves=_SOLVER),
    Metric("solvers.bfs_rings_ms", "ms", "lower", moves=_SOLVER),
    Metric("solvers.dijkstra_calls", "count", "lower", moves=_SOLVER),
    Metric("solvers.dijkstra_ms", "ms", "lower", moves=_SOLVER),
    Metric("solvers.dijkstra_settled", "count", "lower", moves=_SOLVER),
    Metric("solvers.candidates", "count", "lower", moves=_SOLVER),
    Metric("solvers.candidate_ms", "ms", "lower", moves=_SOLVER),
    Metric("solvers.candidate_yield", "ratio", "higher", moves=_SOLVER),
    Metric("solvers.tail_ms", "ms", "lower", moves=_SOLVER),
    Metric("solvers.escalations", "count", "lower", moves=_SOLVER),
    Metric("solvers.forward_expansions", "count", "lower", moves=_SOLVER),
    Metric("embedding.verify_ms", "ms", "lower", moves=_SOLVER),
    Metric("embedding.cost_ms", "ms", "lower", moves=_SOLVER),
    Metric("constraints.rounds", "count", "lower", moves=_CONSTRAINTS),
    Metric("constraints.check_ms", "ms", "lower", moves=_CONSTRAINTS),
    Metric("wal.append_us", "us", "lower", moves=_PATH),
    Metric("wal.sync_ms", "ms", "lower", moves=_PATH),
    Metric("wal.records_per_sync", "count", "higher", moves=_PATH),
    Metric("service.decode_us", "us", "lower", moves=_PATH),
    Metric("service.encode_us", "us", "lower", moves=_PATH),
    Metric("service.queue_wait_p50_ms", "ms", "lower", moves=_PATH),
    Metric("service.queue_wait_p99_ms", "ms", "lower", moves=_PATH),
    Metric("service.ack_wait_ms", "ms", "lower", moves=_PATH),
    Metric("service.batch_size", "count", "higher", moves=_PATH),
    Metric("service.shed", "count", "lower", moves=_PATH),
    Metric("engine.self_ms", "ms", "lower", moves=_SHARE),
    Metric("solvers.self_ms", "ms", "lower", moves=_SHARE),
    Metric("embedding.self_ms", "ms", "lower", moves=_SHARE),
    Metric("constraints.self_ms", "ms", "lower", moves=_SHARE),
    Metric("wal.self_ms", "ms", "lower", moves=_SHARE),
    Metric("service.self_ms", "ms", "lower", moves=_SHARE),
    Metric("server.busy_ms", "ms", "lower", moves="throughput_rps on the closed-loop workloads"),
    Metric(
        "trace.overhead_pct",
        "%",
        "lower",
        moves="nothing: the server CPU the traced run adds over an untraced run of the same requests",
    ),
)
