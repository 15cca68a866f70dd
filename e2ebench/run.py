"""End-to-end benchmark of the DAG-SFC embedding service.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload solver_dag6 --seed 1 --seconds 30 --trace 0

Each run starts a real ``dag-sfc serve`` subprocess (``--workers 0``,
write-ahead log on) and drives it from this process over one connection,
with requests generated from ``--seed``. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` serves through ``tracelaunch.py`` and
reports the per-layer metrics, plus the tracing overhead against an
untraced run of the same requests. Every run checks the server's outputs
(see ``checks.py``). The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: working files of a run (WAL directories, server logs, spans), removed when it ends.
RUNS = ROOT / ".e2ebench"

#: server start-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
#: open-loop runs whose generator trails its schedule by more than this
#: at p99 are flagged as invalid (the client, not the server, fell behind).
LATENESS_LIMIT_MS = 5.0


class Run:
    """One benchmark invocation: a workload, a seed, a run directory."""

    def __init__(self, workload: Any, seed: int, seconds: float, run_dir: Path) -> None:
        from repro.constraints.registry import parse_constraint_args
        from repro.config import SfcConfig
        from repro.sim.trace import generate_trace
        from repro.utils.rng import as_generator

        self.workload = workload
        self.seconds = seconds
        self.run_dir = run_dir
        self.constraints = parse_constraint_args(workload.constraints)
        if workload.closed_loop:
            steps = math.ceil(workload.max_rps * seconds / workload.arrival_probability)
        else:
            steps = math.ceil(seconds / workload.tick_s)
        trace = generate_trace(
            steps=steps + 1,
            n_nodes=workload.network_size,
            n_vnf_types=workload.n_vnf_types,
            sfc=SfcConfig(size=workload.sfc_size),
            arrival_probability=workload.arrival_probability,
            mean_hold=workload.mean_hold,
            rng=seed,
        )
        self.events = list(trace)
        gen = as_generator(seed + 1)
        self.seeds = {ev.request.request_id: int(gen.integers(2**31)) for ev in self.events}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self._spawned = 0

    async def spawn(self, *, spans: Path | None = None) -> Any:
        """Start one server with a fresh WAL directory."""
        from procs import ServerProcess
        from repro.engine import DEFAULT_NETWORK_ID
        from repro.wal.log import shard_wal_path

        self._spawned += 1
        wal_dir = self.run_dir / f"wal{self._spawned}"
        serve = [*self.workload.serve_args(), "--wal", str(wal_dir)]
        if spans is None:
            argv = ["-m", "repro.cli", *serve]
        else:
            argv = [str(HERE / "tracelaunch.py"), str(spans), *serve]
        server = await ServerProcess.spawn(
            argv,
            env=self.env,
            log_path=str(self.run_dir / f"server{self._spawned}.log"),
            wal_path=shard_wal_path(str(wal_dir), DEFAULT_NETWORK_ID),
        )
        hello = server.client.hello
        if (hello["n_nodes"], hello["n_vnf_types"]) != (
            self.workload.network_size,
            self.workload.n_vnf_types,
        ):
            await server.kill()
            raise RuntimeError(f"server substrate does not match the workload: {hello}")
        return server

    async def serve(
        self, server: Any, events: list[Any], seconds: float | None
    ) -> tuple[Any, dict[str, Any], float, float]:
        """Drive ``server`` then drain and stop it.

        Returns (drive result, drained stats, peak RSS MiB, CPU seconds
        spent while serving)."""
        from loadgen import drive

        # The load generator's own collector pauses would be charged to the
        # server's latency, so this process drives without its collector.
        gc.collect()
        gc.disable()
        try:
            cpu0 = server.cpu_s()
            result = await drive(
                server.client,
                events,
                self.seeds,
                seconds=seconds,
                in_flight=self.workload.in_flight,
                tick_s=self.workload.tick_s,
                constraints=self.constraints or None,
            )
            drained = await server.drain()
            rss = server.peak_rss_mb()  # reprolint: disable=RPL701 -- a /proc read after the drive
            cpu = server.cpu_s() - cpu0
        except BaseException:
            await server.kill()
            raise
        finally:
            gc.enable()
        await server.shutdown()
        return result, drained, rss, cpu

    def check(
        self, server: Any, result: Any, drained: dict[str, Any], *, replay: bool
    ) -> list[str]:
        """Problems with a drained run; ``replay`` adds the in-process
        replay comparison (one request in flight only)."""
        from checks import check_wal, compare_decisions, regenerate_network, replay_in_process
        from repro.engine import DEFAULT_NETWORK_ID

        fingerprint = drained["shards"][DEFAULT_NETWORK_ID]["ledger_fingerprint"]
        problems = check_wal(
            self.workload, regenerate_network(self.workload), server.wal_path, fingerprint, result
        )
        if replay and self.workload.in_flight == 1:
            expected = replay_in_process(
                self.workload,
                regenerate_network(self.workload),
                result.submitted,
                self.seeds,
                self.constraints,
            )
            problems += compare_decisions("in-process replay", expected, result)
        return problems


async def run_untraced(run: Run) -> tuple[Any, list[str], dict[str, float], list[str]]:
    from repro.utils.stats import percentile

    setups = []
    for _ in range(SETUP_REPEATS - 1):
        server = await run.spawn()
        setups.append(server.setup_s)
        await server.shutdown()
    server = await run.spawn()
    setups.append(server.setup_s)
    result, drained, rss, _ = await run.serve(server, run.events, run.seconds)
    problems = run.check(server, result, drained, replay=True)

    decided = [
        result.outcomes[ev.request.request_id]
        for ev in result.submitted
        if ev.request.request_id in result.outcomes
    ]
    first = decided[: run.workload.quality_decisions]
    accepted = [o for o in first if o.accepted]
    latencies = sorted(s * 1e3 for s in result.latencies.values())
    if not decided or not accepted:
        problems.append(f"run decided {len(decided)} requests and accepted {len(accepted)}")
        return result, problems, {}, []
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(decided) / result.elapsed_s,
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p90_ms": percentile(latencies, 0.90),
        "acceptance_ratio": len(accepted) / len(first),
        "mean_cost": statistics.fmean(o.total_cost for o in accepted),
        "server_peak_rss_mb": rss,
    }
    notes = [
        f"{len(decided)} decisions in {result.elapsed_s:.2f} s; "
        f"latency over {len(latencies)} samples; not gated: p99 "
        f"{percentile(latencies, 0.99):.3f} ms, max {latencies[-1]:.3f} ms",
        f"acceptance_ratio and mean_cost over the first {len(first)} decisions "
        f"({len(accepted)} accepted)",
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
    ]
    if result.lateness:
        late = percentile(sorted(result.lateness), 0.99) * 1e3
        verdict = "ok" if late <= LATENESS_LIMIT_MS else "INVALID RUN: generator fell behind"
        notes.append(f"open-loop generator lateness p99 {late:.3f} ms ({verdict})")
    return result, problems, metrics, notes


async def run_traced(run: Run) -> tuple[Any, list[str], dict[str, float], list[str]]:
    from checks import compare_decisions
    from layers import LAYERS, layer_metrics

    spans_path = run.run_dir / "spans.json"
    server = await run.spawn(spans=spans_path)
    result, drained, _, cpu_traced = await run.serve(server, run.events, run.seconds)
    # The traced run is held to the untraced rerun below instead of the
    # in-process replay, which would double the run's length.
    problems = run.check(server, result, drained, replay=False)

    # The same requests again, untraced: the CPU difference is the overhead.
    server = await run.spawn()
    plain, _, _, cpu_plain = await run.serve(server, result.submitted, None)
    problems += [f"untraced rerun: {line}" for line in plain.failures]
    if run.workload.in_flight == 1:
        # Tracing must never change a decision.
        expected = {rid: (o.accepted, o.total_cost) for rid, o in plain.outcomes.items()}
        problems += compare_decisions("untraced rerun", expected, result)

    with open(spans_path, encoding="utf-8") as fh:  # reprolint: disable=RPL701 -- both servers have exited
        spans = json.load(fh)
    shed = sum(v for k, v in drained["counters"].items() if k.startswith("shed_"))
    metrics = layer_metrics(spans, shed=int(shed))
    metrics["trace.overhead_pct"] = (cpu_traced / cpu_plain - 1.0) * 100.0
    busy = metrics["server.busy_ms"]
    notes = [
        f"{len(result.outcomes)} decisions traced, {len(spans)} spans; server CPU "
        f"{cpu_traced:.2f} s traced vs {cpu_plain:.2f} s untraced",
        "self-time shares of traced busy time: "
        + ", ".join(f"{layer} {metrics[f'{layer}.self_ms'] / busy:.1%}" for layer in LAYERS),
    ]
    return result, problems, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"e2ebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, run_dir)
        runner = run_traced if args.trace else run_untraced
        result, problems, values, notes = asyncio.run(runner(run))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()

    vocabulary = PER_LAYER if args.trace else END_TO_END
    missing = [m.name for m in vocabulary if m.name not in values]
    if missing and not problems:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for metric in vocabulary:
        if metric.name in values:
            print(f"  {metric.name:28s} {values[metric.name]:>14.6g} {metric.unit}")
    print(f"  operations attempted {result.attempted}, failed {len(result.failures)}")
    for line in result.failures[:10]:
        print(f"  FAILED {line}")
    for line in problems:
        print(f"  CHECK FAILED {line}")
    print(f"  correctness: {'ok' if not problems else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result.attempted,
                "failed": len(result.failures),
                "metrics": {
                    m.name: {"value": values[m.name], "unit": m.unit}
                    for m in vocabulary
                    if m.name in values
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
