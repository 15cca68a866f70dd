"""Launch ``dag-sfc serve`` with spans recorded around its layer entry points.

Usage::

    python e2ebench/tracelaunch.py SPANS_JSON serve [serve options...]

Before the CLI starts, each public entry point below is replaced, in the
namespace its caller looks it up in, by a wrapper that records one span:
``[id, parent id, name, start, end, request id, detail]``. Parents come
from a per-thread stack, so a span's parent is the span that called it
(solver spans root at ``solvers.embed`` in the solve thread). Spans stay in
memory and are written to ``SPANS_JSON`` when the server exits. Nothing in
the program itself changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

Detail = Callable[[tuple[Any, ...], Any], Any]


class Tracer:
    """In-memory span recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        rid: Detail | None = None,
        detail: Detail | None = None,
        before: Callable[[tuple[Any, ...]], Any] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call.

        ``rid``/``detail`` map (args, result) to the span's request id and
        detail; ``before`` computes the detail from the arguments ahead of
        the call instead (state the call consumes).
        """
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            pre = before(args) if before is not None else None
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append([span_id, parent, name, start, end, None, pre])
                raise
            end = clock()
            stack.pop()
            spans.append(
                [
                    span_id,
                    parent,
                    name,
                    start,
                    end,
                    rid(args, out) if rid is not None else None,
                    detail(args, out) if detail is not None else pre,
                ]
            )
            return out

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))

    def write(self, path: str) -> None:
        """Write every span, each carrying the request id it served."""
        _attribute_requests(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _attribute_requests(spans: list[list[Any]]) -> None:
    """Fill in the request id of spans whose call did not name one.

    The dispatcher decides one submit at a time (strict dispatch): it
    builds the view, solves in a worker thread, then commits. A root view
    or solve span therefore serves the request of the next commit, and a
    nested span serves its parent's request. WAL syncs cover a whole
    dispatch cycle and keep no request id.
    """
    waiting: list[list[Any]] = []
    roots = (s for s in spans if not s[1] and s[2] in ("engine.view", "solvers.embed", "engine.commit"))
    for span in sorted(roots, key=lambda s: s[3]):
        if span[2] != "engine.commit":
            waiting.append(span)
            continue
        for pending in waiting:
            pending[5] = span[5]
        waiting = []
    by_id = {span[0]: span for span in spans}
    # A span's id is drawn when its call starts, so parents sort first.
    for span in sorted(spans, key=lambda s: s[0]):
        if span[5] is None and span[1] in by_id:
            span[5] = by_id[span[1]][5]


def _embed_stats(args: tuple[Any, ...], result: Any) -> list[int]:
    stats = result.stats
    return [
        int(stats.get("escalations", 0)),
        int(stats.get("forward_expansions", 0)),
        int(stats.get("constraint_rounds", 0)),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point (server process only)."""
    import repro.embedding.base as embedding_base
    import repro.service.protocol as protocol
    import repro.service.server as server
    import repro.solvers.mbbe as mbbe
    import repro.solvers.tails as tails
    from repro.constraints.base import ConstraintSet
    from repro.engine import EmbeddingEngine
    from repro.wal.log import WalWriter

    tracer.patch(server, "solve_on_view", "solvers.embed", detail=_embed_stats)
    tracer.patch(EmbeddingEngine, "view", "engine.view")
    tracer.patch(
        EmbeddingEngine,
        "commit",
        "engine.commit",
        rid=lambda a, out: a[1].request_id,
        detail=lambda a, out: bool(out.accepted),
    )
    tracer.patch(EmbeddingEngine, "release", "engine.release", rid=lambda a, out: a[1])
    tracer.patch(mbbe, "dijkstra", "solvers.dijkstra", detail=lambda a, out: len(out.dist))
    tracer.patch(mbbe, "bfs_rings", "solvers.bfs_rings")
    tracer.patch(
        mbbe,
        "evaluate_layer_candidate",
        "solvers.candidate",
        detail=lambda a, out: out is not None,
    )
    tracer.patch(tails, "connect_destination", "solvers.tail")
    tracer.patch(embedding_base, "verify_embedding", "embedding.verify")
    tracer.patch(embedding_base, "compute_cost", "embedding.cost")
    tracer.patch(ConstraintSet, "check", "constraints.check")
    tracer.patch(
        WalWriter,
        "append_record",
        "wal.append",
        rid=lambda a, out: a[2].get("request_id"),
        detail=lambda a, out: a[1],
    )
    tracer.patch(WalWriter, "sync", "wal.sync", before=lambda a: a[0].pending_count)
    tracer.patch(
        protocol,
        "decode_message",
        "service.decode",
        rid=lambda a, out: out.get("request_id"),
        detail=lambda a, out: out.get("type"),
    )
    tracer.patch(
        protocol,
        "encode_message",
        "service.encode",
        rid=lambda a, out: a[0].get("request_id"),
        detail=lambda a, out: a[0].get("type"),
    )


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
