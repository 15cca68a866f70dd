"""Per-layer metrics from the spans the traced launcher writes.

A span is ``[id, parent, name, start, end, request id, detail]``; its layer
is the part of ``name`` before the dot (``engine``, ``solvers``,
``embedding``, ``constraints``, ``wal``, ``service``). A span's self time
is its duration minus its children's, so the layers' self times add up to
the server's traced busy time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Sequence

from repro.utils.stats import percentile

__all__ = ["LAYERS", "layer_metrics"]

LAYERS = ("engine", "solvers", "embedding", "constraints", "wal", "service")

_ID, _PARENT, _NAME, _START, _END, _RID, _DETAIL = range(7)


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[list[Any]], *, shed: int) -> dict[str, float]:
    """Every per-layer metric, keyed by its benchmark name."""
    submits = [s for s in spans if s[_NAME] == "service.decode" and s[_DETAIL] == "submit"]
    if not submits:
        raise ValueError("trace holds no decoded submit")
    # Spans before the first submit belong to start-up, not to serving.
    first = min(s[_START] for s in submits)
    spans = [s for s in spans if s[_START] >= first]

    by_name: dict[str, list[list[Any]]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span[_NAME]].append(span)
        if span[_PARENT]:
            child_time[span[_PARENT]] += span[_END] - span[_START]

    def total_ms(name: str) -> float:
        return sum(s[_END] - s[_START] for s in by_name[name]) * 1e3

    def mean_ms(name: str) -> float:
        return _mean([(s[_END] - s[_START]) * 1e3 for s in by_name[name]])

    commits = sorted(by_name["engine.commit"], key=lambda s: s[_START])
    decisions = len(commits)
    if decisions == 0:
        raise ValueError("trace holds no commit")

    # When the dispatcher started building each submit's view.
    first_view: dict[int, float] = {}
    for span in by_name["engine.view"]:
        if not span[_PARENT] and span[_RID] is not None:
            first_view[span[_RID]] = min(span[_START], first_view.get(span[_RID], span[_START]))

    decoded = {s[_RID]: s[_END] for s in submits}
    queue_wait = [
        (first_view[rid] - decoded[rid]) * 1e3 for rid in first_view if rid in decoded
    ]
    encoded = {
        s[_RID]: s[_START]
        for s in by_name["service.encode"]
        if s[_DETAIL] in ("accepted", "rejected")
    }
    ack_wait = [
        (encoded[s[_RID]] - s[_END]) * 1e3 for s in commits if s[_RID] in encoded
    ]

    syncs = sorted(by_name["wal.sync"], key=lambda s: s[_START])
    commit_ends = sorted(s[_END] for s in commits)
    batches: list[int] = []
    cursor = 0
    for sync in syncs:
        count = 0
        while cursor < len(commit_ends) and commit_ends[cursor] <= sync[_START]:
            count += 1
            cursor += 1
        if count:
            batches.append(count)

    embeds = by_name["solvers.embed"]
    embed_stats = [s[_DETAIL] for s in embeds if s[_DETAIL] is not None]
    candidates = by_name["solvers.candidate"]
    dijkstras = by_name["solvers.dijkstra"]

    self_ms: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        own = span[_END] - span[_START] - child_time.get(span[_ID], 0.0)
        self_ms[span[_NAME].split(".", 1)[0]] += own * 1e3

    per = 1.0 / decisions
    metrics = {
        "engine.view_ms": total_ms("engine.view") * per,
        "engine.view_calls": len(by_name["engine.view"]) * per,
        "engine.commit_ms": mean_ms("engine.commit"),
        "engine.release_ms": mean_ms("engine.release"),
        "solvers.embed_ms": total_ms("solvers.embed") * per,
        "solvers.bfs_rings_calls": len(by_name["solvers.bfs_rings"]) * per,
        "solvers.bfs_rings_ms": total_ms("solvers.bfs_rings") * per,
        "solvers.dijkstra_calls": len(dijkstras) * per,
        "solvers.dijkstra_ms": total_ms("solvers.dijkstra") * per,
        "solvers.dijkstra_settled": _mean([s[_DETAIL] for s in dijkstras if s[_DETAIL] is not None]),
        "solvers.candidates": len(candidates) * per,
        "solvers.candidate_ms": total_ms("solvers.candidate") * per,
        "solvers.candidate_yield": (
            sum(1 for s in candidates if s[_DETAIL]) / len(candidates) if candidates else 0.0
        ),
        "solvers.tail_ms": total_ms("solvers.tail") * per,
        "solvers.escalations": sum(s[0] for s in embed_stats) * per,
        "solvers.forward_expansions": sum(s[1] for s in embed_stats) * per,
        "embedding.verify_ms": total_ms("embedding.verify") * per,
        "embedding.cost_ms": total_ms("embedding.cost") * per,
        "constraints.rounds": _mean([s[2] for s in embed_stats]),
        "constraints.check_ms": total_ms("constraints.check") * per,
        "wal.append_us": mean_ms("wal.append") * 1e3,
        "wal.sync_ms": mean_ms("wal.sync"),
        "wal.records_per_sync": _mean([s[_DETAIL] for s in syncs if s[_DETAIL]]),
        "service.decode_us": mean_ms("service.decode") * 1e3,
        "service.encode_us": mean_ms("service.encode") * 1e3,
        "service.queue_wait_p50_ms": percentile(sorted(queue_wait), 0.50),
        "service.queue_wait_p99_ms": percentile(sorted(queue_wait), 0.99),
        "service.ack_wait_ms": percentile(sorted(ack_wait), 0.50),
        "service.batch_size": _mean(batches),
        "service.shed": float(shed),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms[layer] * per
    metrics["server.busy_ms"] = sum(self_ms.values()) * per
    return metrics
