"""Command-line interface: ``python -m repro`` / ``dag-sfc``.

Sub-commands
------------

* ``figure {6a,6b,6c,6d,6e,6f,table2}`` — run a Fig. 6 sweep and print the
  mean-cost table (optionally an ASCII chart and a CSV file);
* ``solve`` — embed one random instance with chosen solvers (quick demo);
* ``serve`` / ``loadgen`` — run the long-lived embedding service and drive
  it with a reproducible arrival trace (see ``docs/serving.md``);
* ``drill`` — run one fault, crash or migration drill end to end and
  gate on its verdict (see ``docs/fault_tolerance.md``);
* ``list-solvers`` — registered algorithms.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

import numpy as np

from .config import FlowConfig, NetworkConfig, ScenarioConfig, SfcConfig
from .network.generator import generate_network
from .sim.ascii_chart import line_chart
from .sim.figures import FIGURES, figure_by_id
from .sim.metrics import aggregate
from .sim.report import series_from_summaries, summaries_to_csv, summary_table
from .sim.runner import run_experiment, run_trial
from .sim.experiment import SolverSpec
from .solvers.registry import available_solvers

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="dag-sfc",
        description="DAG-SFC embedding (ICPP 2018) — reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="run one evaluation sweep (Fig. 6 / Table 2)")
    fig.add_argument("id", choices=sorted(FIGURES), help="figure id")
    fig.add_argument("--trials", type=int, default=None, help="trials per point")
    fig.add_argument("--seed", type=int, default=20180813, help="master seed")
    fig.add_argument("--parallel", type=int, default=None, help="worker processes")
    fig.add_argument("--csv", type=str, default=None, help="write full stats CSV here")
    fig.add_argument("--chart", action="store_true", help="also print an ASCII chart")

    solve = sub.add_parser("solve", help="embed one random instance")
    solve.add_argument("--network-size", type=int, default=100)
    solve.add_argument("--connectivity", type=float, default=6.0)
    solve.add_argument("--sfc-size", type=int, default=5)
    solve.add_argument("--seed", type=int, default=1)
    solve.add_argument(
        "--solvers",
        type=str,
        default="RANV,MINV,MBBE",
        help="comma-separated solver names",
    )

    sub.add_parser("list-solvers", help="print registered solver names")

    online = sub.add_parser(
        "online", help="replay an arrival trace: acceptance ratio per algorithm"
    )
    online.add_argument("--steps", type=int, default=200)
    online.add_argument("--network-size", type=int, default=80)
    online.add_argument("--arrival-prob", type=float, default=0.5)
    online.add_argument("--mean-hold", type=float, default=40.0)
    online.add_argument("--sfc-size", type=int, default=4)
    online.add_argument("--seed", type=int, default=1)
    online.add_argument("--solvers", type=str, default="RANV,MINV,MBBE")

    compare = sub.add_parser(
        "compare", help="statistical comparison of two algorithms"
    )
    compare.add_argument("a", type=str, help="first algorithm")
    compare.add_argument("b", type=str, help="second algorithm")
    compare.add_argument("--trials", type=int, default=20)
    compare.add_argument("--network-size", type=int, default=100)
    compare.add_argument("--sfc-size", type=int, default=5)
    compare.add_argument("--seed", type=int, default=1)

    inspect = sub.add_parser(
        "inspect", help="solve one instance and print the cost attribution"
    )
    inspect.add_argument("--network-size", type=int, default=100)
    inspect.add_argument("--sfc-size", type=int, default=5)
    inspect.add_argument("--seed", type=int, default=1)
    inspect.add_argument("--solver", type=str, default="MBBE")
    inspect.add_argument("--save", type=str, default=None, help="dump instance+solution JSON here")

    profile = sub.add_parser(
        "profile",
        help="profile the solver core on a fixed-seed workload (see docs/performance.md)",
    )
    profile.add_argument("--solver", type=str, default="MBBE", help="solver to profile")
    profile.add_argument("--network-size", type=int, default=150)
    profile.add_argument("--sfc-size", type=int, default=5)
    profile.add_argument("--trials", type=int, default=6, help="instances to embed")
    profile.add_argument("--seed", type=int, default=20180813, help="master seed")
    profile.add_argument("--top", type=int, default=20, help="hot-spot rows to print")
    profile.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "calls"),
        default="cumulative",
        help="pstats sort key",
    )
    profile.add_argument(
        "--phases-only",
        action="store_true",
        help="print only the per-phase wall-time table (skip cProfile)",
    )

    serve = sub.add_parser(
        "serve", help="run the embedding service on a generated network (see docs/serving.md)"
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7717, help="0 picks an ephemeral port")
    serve.add_argument("--network-size", type=int, default=80)
    serve.add_argument("--connectivity", type=float, default=5.0)
    serve.add_argument("--n-vnf-types", type=int, default=8)
    serve.add_argument("--deploy-ratio", type=float, default=0.4)
    serve.add_argument("--vnf-capacity", type=float, default=4.0)
    serve.add_argument("--link-capacity", type=float, default=4.0)
    serve.add_argument("--seed", type=int, default=1, help="network generator + service seed")
    serve.add_argument("--solver", type=str, default="MBBE")
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="independent substrate networks to serve (ids net0, net1, …)",
    )
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.add_argument("--batch-size", type=int, default=8)
    # Kept so command lines passing `--workers 0` still parse; solves always
    # run inline in a thread.
    serve.add_argument("--workers", type=int, default=0, choices=[0], help=argparse.SUPPRESS)
    serve.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore every shard from its --wal log (last checkpoint plus the "
            "records after it) before serving"
        ),
    )
    serve.add_argument(
        "--wal",
        type=str,
        default=None,
        metavar="DIR",
        help=(
            "write-ahead log directory (one log per shard): every commit is "
            "fsynced before it is acknowledged; the snapshot verb appends a "
            "checkpoint to every log"
        ),
    )
    serve.add_argument(
        "--standby",
        action="store_true",
        help=(
            "keep a warm standby per shard tailing its log (requires --wal); "
            "swap it in with the protocol's promote verb"
        ),
    )
    serve.add_argument(
        "--chaos",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "inject faults while serving: a fault-script JSON path, or an "
            "inline MTBF spec like 'horizon=100,node=30,link=20,instance=40'"
        ),
    )
    serve.add_argument(
        "--chaos-shard",
        type=str,
        default=None,
        metavar="NETWORK_ID",
        help="the shard --chaos targets (default: the default shard, net0)",
    )
    serve.add_argument(
        "--degraded-queue-factor",
        type=float,
        default=0.5,
        help="queue-bound multiplier while substrate faults are active",
    )
    serve.add_argument(
        "--rebalance",
        action="store_true",
        help=(
            "run the background rebalancer: periodically migrate the "
            "worst-value embeddings to cheaper placements through guarded, "
            "transactional moves (see docs/rebalancing.md)"
        ),
    )
    serve.add_argument(
        "--rebalance-interval",
        type=int,
        default=50,
        help="shard steps (batches of engine work) between rebalance cycles",
    )
    serve.add_argument(
        "--rebalance-min-gain",
        type=float,
        default=0.01,
        help="minimum relative cost gain for a move to be worth making",
    )
    serve.add_argument(
        "--rebalance-cooldown",
        type=int,
        default=3,
        help="cycles an examined request is left alone before re-planning",
    )

    loadgen = sub.add_parser(
        "loadgen", help="drive a running service with a reproducible arrival trace"
    )
    loadgen.add_argument("--host", type=str, default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7717)
    loadgen.add_argument("--steps", type=int, default=200)
    loadgen.add_argument("--arrival-prob", type=float, default=0.5)
    loadgen.add_argument("--mean-hold", type=float, default=40.0)
    loadgen.add_argument("--sfc-size", type=int, default=4)
    loadgen.add_argument("--rate", type=float, default=1.0)
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.add_argument(
        "--first-id",
        type=int,
        default=0,
        help=(
            "first request id of the trace; offset it when driving a resumed "
            "server whose id space is already partly claimed (--resume --wal)"
        ),
    )
    loadgen.add_argument(
        "--network-id",
        type=str,
        default=None,
        help="address one shard of a sharded server (default: the default shard)",
    )
    loadgen.add_argument("--mode", choices=("open", "closed"), default="open")
    loadgen.add_argument(
        "--churn",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help=(
            "release this seeded fraction of accepted requests early (at half "
            "their holding time) — reproducible mid-run departures that "
            "fragment the substrate"
        ),
    )
    loadgen.add_argument("--tick", type=float, default=0.02, help="seconds per trace step")
    loadgen.add_argument(
        "--constraint",
        action="append",
        default=None,
        metavar="KIND[:K=V,...]",
        help=(
            "attach a constraint to every submission (repeatable), e.g. "
            "'delay:budget=12' or 'affinity:pair=1-2,pair=0-3' or "
            "'zones:count=3,multiplier=2.5' — see docs/constraints.md"
        ),
    )
    loadgen.add_argument(
        "--max-in-flight", type=int, default=8, help="closed-loop concurrency bound"
    )
    loadgen.add_argument(
        "--out", type=str, default=None, help="write BENCH_service.json-style report here"
    )
    loadgen.add_argument(
        "--require-accepted",
        action="store_true",
        help="exit nonzero when no request was accepted (CI smoke guard)",
    )
    loadgen.add_argument(
        "--shutdown",
        action="store_true",
        help="drain and shut the server down after the run",
    )

    drill = sub.add_parser(
        "drill",
        help="run one fault, crash or migration drill end to end (see docs/fault_tolerance.md)",
    )
    drill.add_argument("scenario", nargs="?", default=None, help="registered drill name")
    drill.add_argument("--solver", type=str, default="MBBE")
    drill.add_argument("--seed", type=int, default=None, help="default: the drill's own seed")
    drill.add_argument("--out", type=str, default=None, help="write the report JSON here")
    drill.add_argument("--list", action="store_true", help="print the registered drills")

    lint = sub.add_parser(
        "lint", help="run the reprolint static-analysis suite (see docs/static_analysis.md)"
    )
    lint.add_argument(
        "paths", nargs="*", default=[], help="files/directories to check (default: src/repro)"
    )
    lint.add_argument("--format", choices=("text", "json", "github"), default="text")
    lint.add_argument("--select", type=str, default=None, help="comma-separated rule codes")
    lint.add_argument("--list-rules", action="store_true", help="print the rule catalog")
    return parser


def _cmd_figure(args: argparse.Namespace) -> int:
    kw = {"master_seed": args.seed}
    if args.trials is not None:
        kw["trials"] = args.trials
    spec = figure_by_id(args.id, **kw)
    print(f"{spec.title} — {spec.trials} trials/point, seed {spec.master_seed}")
    print(f"({spec.total_embeddings()} embeddings)")
    records = run_experiment(spec, parallel=args.parallel, progress=True)
    summaries = aggregate(records)
    print()
    print(summary_table(summaries, x_label=spec.x_label))
    if args.chart:
        print()
        print(
            line_chart(
                series_from_summaries(summaries),
                title=spec.title,
                x_label=spec.x_label,
            )
        )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(summaries_to_csv(summaries))
        print(f"\nCSV written to {args.csv}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.solvers.split(",") if n.strip()]
    scenario = ScenarioConfig(
        network=NetworkConfig(size=args.network_size, connectivity=args.connectivity),
        sfc=SfcConfig(size=args.sfc_size),
    )
    records = run_trial(
        scenario,
        [SolverSpec(name=n) for n in names],
        seed=args.seed,
    )
    print(f"instance: {args.network_size} nodes, SFC size {args.sfc_size}, seed {args.seed}")
    for r in records:
        if r.success:
            print(
                f"  {r.algorithm:6s} cost={r.total_cost:10.2f} "
                f"(vnf={r.vnf_cost:.2f}, link={r.link_cost:.2f}) "
                f"runtime={r.runtime * 1e3:.1f} ms"
            )
        else:
            print(f"  {r.algorithm:6s} FAILED: {r.reason}")
    return 0


def _cmd_online(args: argparse.Namespace) -> int:
    from .engine import EmbeddingEngine
    from .sim.trace import generate_trace, replay
    from .solvers.registry import make_solver

    cfg = NetworkConfig(
        size=args.network_size,
        connectivity=5.0,
        n_vnf_types=8,
        deploy_ratio=0.4,
        vnf_capacity=4.0,
        link_capacity=4.0,
    )
    network = generate_network(cfg, rng=args.seed)
    trace = generate_trace(
        steps=args.steps,
        n_nodes=args.network_size,
        n_vnf_types=8,
        sfc=SfcConfig(size=args.sfc_size),
        arrival_probability=args.arrival_prob,
        mean_hold=args.mean_hold,
        rng=args.seed + 1,
    )
    print(
        f"trace: {len(trace)} arrivals over {args.steps} steps, "
        f"offered load ≈ {trace.offered_load:.1f} concurrent requests"
    )
    print(f"  {'algorithm':10s} {'accepted':>9s} {'ratio':>7s} {'mean cost':>10s}")
    for name in (n.strip() for n in args.solvers.split(",") if n.strip()):
        engine = EmbeddingEngine(network, make_solver(name))
        replay(trace, engine, rng=args.seed + 2)
        accepted = int(engine.counters["accepted"])
        cost = engine.counters["total_cost_accepted"]
        mean_cost = cost / accepted if accepted else float("nan")
        ratio = engine.stats()["acceptance_ratio"]
        print(f"  {name:10s} {accepted:>9d} {ratio:>7.1%} {mean_cost:>10.1f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .sim.stats import bootstrap_mean_ci, paired_comparison, welch_t_test
    from .utils.rng import trial_seed

    scenario = ScenarioConfig(
        network=NetworkConfig(size=args.network_size, connectivity=6.0),
        sfc=SfcConfig(size=args.sfc_size),
    )
    specs = [SolverSpec(name=args.a), SolverSpec(name=args.b)]
    records = []
    for t in range(args.trials):
        records.extend(
            run_trial(scenario, specs, seed=trial_seed(args.seed, t), trial=t)
        )
    a_costs = [r.total_cost for r in records if r.algorithm == specs[0].series and r.success]
    b_costs = [r.total_cost for r in records if r.algorithm == specs[1].series and r.success]
    if len(a_costs) < 2 or len(b_costs) < 2:
        print("not enough successful trials to compare")
        return 1
    welch = welch_t_test(a_costs, b_costs)
    ci_a = bootstrap_mean_ci(a_costs, rng=args.seed)
    ci_b = bootstrap_mean_ci(b_costs, rng=args.seed)
    pairs = paired_comparison(records, specs[0].series, specs[1].series)
    print(f"{args.trials} paired trials, {args.network_size} nodes, SFC size {args.sfc_size}:")
    print(f"  {specs[0].series:8s} mean {welch.mean_a:9.1f}  95% CI [{ci_a[0]:.1f}, {ci_a[1]:.1f}]")
    print(f"  {specs[1].series:8s} mean {welch.mean_b:9.1f}  95% CI [{ci_b[0]:.1f}, {ci_b[1]:.1f}]")
    print(
        f"  Welch t = {welch.t:.2f} (df {welch.df:.1f}), p = {welch.p_value:.2e}"
        f" -> {'significant' if welch.significant else 'not significant'} at 5%"
    )
    print(
        f"  paired: {specs[0].series} wins {pairs.wins_a}, ties {pairs.ties}, "
        f"{specs[1].series} wins {pairs.wins_b}; mean saving {pairs.mean_saving:.1%}"
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .embedding.inspect import attribute_cost
    from .sfc.generator import generate_dag_sfc as _gen_dag
    from .solvers.registry import make_solver

    cfg = NetworkConfig(size=args.network_size, connectivity=6.0)
    rng = np.random.default_rng(args.seed)
    network = generate_network(cfg, rng)
    dag = _gen_dag(SfcConfig(size=args.sfc_size), cfg.n_vnf_types, rng)
    src, dst = (int(v) for v in rng.choice(cfg.size, size=2, replace=False))
    result = make_solver(args.solver).embed(network, dag, src, dst, rng=args.seed)
    if not result.success:
        print(f"{args.solver} failed: {result.reason}")
        return 1
    print(result.embedding.describe())
    print()
    print(attribute_cost(network, result.embedding, FlowConfig()).format_table())
    if args.save:
        from .serialize import dump_instance

        dump_instance(
            args.save, network, dag, source=src, dest=dst,
            embedding=result.embedding,
            metadata={"solver": args.solver, "seed": args.seed},
        )
        print(f"\ninstance written to {args.save}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Per-phase wall-time breakdown + cProfile hot spots on fixed seeds.

    The workload mirrors the solver-core microbenchmark
    (``benchmarks/solver_core.py``): Table-2-style instances at a chosen
    size, derived per-trial seeds, one embed per instance.
    """
    from .sfc.generator import generate_dag_sfc as _gen_dag
    from .solvers.registry import make_solver
    from .utils.profiling import format_phases, profile_call
    from .utils.rng import trial_seed
    from .utils.timing import Stopwatch

    scenario = ScenarioConfig(
        network=NetworkConfig(size=args.network_size, connectivity=6.0),
        sfc=SfcConfig(size=args.sfc_size),
    )
    seeds = [trial_seed(args.seed, t, salt=0) for t in range(args.trials)]
    sw = Stopwatch()

    instances = []
    with sw.lap("generate"):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            network = generate_network(scenario.network, rng)
            dag = _gen_dag(scenario.sfc, scenario.network.n_vnf_types, rng)
            src, dst = (
                int(v) for v in rng.choice(scenario.network.size, size=2, replace=False)
            )
            instances.append((seed, network, dag, src, dst))

    solver = make_solver(args.solver)

    def _embed_all() -> int:
        n_ok = 0
        for seed, network, dag, src, dst in instances:
            solver_rng = np.random.default_rng(trial_seed(seed, 0, salt=0xA160))
            result = solver.embed(
                network, dag, src, dst, scenario.flow, rng=solver_rng
            )
            n_ok += 1 if result.success else 0
        return n_ok

    print(
        f"profiling {args.solver}: {args.trials} instances, "
        f"{args.network_size} nodes, SFC size {args.sfc_size}, seed {args.seed}"
    )
    hot_spots = ""
    if args.phases_only:
        with sw.lap("embed"):
            n_ok = _embed_all()
    else:
        with sw.lap("embed"):
            n_ok, hot_spots = profile_call(_embed_all, sort=args.sort, top=args.top)
    print(f"{n_ok}/{args.trials} embeddings succeeded")
    print()
    print(format_phases(sw.laps))
    if not args.phases_only:
        print()
        print(hot_spots.rstrip())
    return 0


def _parse_chaos_spec(spec: str, network: "object", seed: int) -> "object":
    """``--chaos`` argument → :class:`~repro.faults.model.FaultScript`.

    A path to a fault-script JSON wins; otherwise the value is an inline
    ``key=value`` MTBF spec (keys: horizon, node, link, instance, and the
    ``*_mttr`` variants) used to generate a script for the served network.
    """
    import json
    import os

    from .exceptions import ConfigurationError
    from .faults.model import FaultSpec, generate_fault_script, script_from_dict

    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return script_from_dict(json.load(fh))
    fields = {
        "horizon": 100.0, "node": 0.0, "link": 0.0, "instance": 0.0,
        "node_mttr": 5.0, "link_mttr": 5.0, "instance_mttr": 5.0,
    }
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        if key not in fields or not value:
            raise ConfigurationError(
                f"bad --chaos spec entry {part!r}; keys: {', '.join(sorted(fields))}"
            )
        fields[key] = float(value)
    fault_spec = FaultSpec(
        horizon=int(fields["horizon"]),
        node_mtbf=fields["node"],
        node_mttr=fields["node_mttr"],
        link_mtbf=fields["link"],
        link_mttr=fields["link_mttr"],
        instance_mtbf=fields["instance"],
        instance_mttr=fields["instance_mttr"],
    )
    return generate_fault_script(fault_spec, network, rng=seed)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Generate the substrate(s), then serve until drained (Ctrl-C also stops)."""
    import asyncio

    from .engine import RebalanceConfig, restore_shards
    from .service import EmbeddingServer, ServiceConfig

    if args.shards < 1:
        print("dag-sfc serve: --shards must be >= 1", file=sys.stderr)
        return 2
    for flag, given in (("--standby", args.standby), ("--resume", args.resume)):
        if given and not args.wal:
            print(f"dag-sfc serve: {flag} requires --wal", file=sys.stderr)
            return 2
    net_cfg = NetworkConfig(
        size=args.network_size,
        connectivity=args.connectivity,
        n_vnf_types=args.n_vnf_types,
        deploy_ratio=args.deploy_ratio,
        vnf_capacity=args.vnf_capacity,
        link_capacity=args.link_capacity,
    )
    # Shard i's substrate derives from seed + i, so shard net0 of a sharded
    # server is the same network a single-network `serve --seed S` builds.
    networks = {
        f"net{i}": generate_network(net_cfg, rng=args.seed + i)
        for i in range(args.shards)
    }
    chaos_shard = args.chaos_shard
    if chaos_shard is not None and chaos_shard not in networks:
        print(
            f"dag-sfc serve: --chaos-shard {chaos_shard!r} is not served "
            f"(shards: {', '.join(networks)})",
            file=sys.stderr,
        )
        return 2
    fault_script = None
    if args.chaos:
        chaos_network = networks[chaos_shard or next(iter(networks))]
        fault_script = _parse_chaos_spec(args.chaos, chaos_network, args.seed + 1)
        print(f"chaos mode: {len(fault_script.events)} scripted fault events")
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        solver=args.solver,
        queue_limit=args.queue_limit,
        batch_size=args.batch_size,
        seed=args.seed,
        fault_script=fault_script,
        chaos_network_id=chaos_shard,
        degraded_queue_factor=args.degraded_queue_factor,
        wal_dir=args.wal,
        standby=args.standby,
        rebalance=(
            RebalanceConfig(
                interval=args.rebalance_interval,
                min_gain=args.rebalance_min_gain,
                cooldown=args.rebalance_cooldown,
            )
            if args.rebalance
            else None
        ),
    )
    server_kwargs: dict[str, Any] = {}
    if args.resume:
        # Each shard: its log's last checkpoint + the records after it. The
        # checkpoint's counters carry the transport keys alongside the
        # engine's; the leftovers rehydrate them.
        engines, leftovers = restore_shards(networks, args.solver, args.wal, seed=args.seed)
        print(
            f"resumed {sum(e.active_count() for e in engines.values())} active "
            f"reservations across {len(engines)} shard(s) from {args.wal}"
        )
        server_target: Any = engines
        server_kwargs = {"transport_counters": leftovers}
        if args.shards == 1:
            server_kwargs["n_vnf_types"] = args.n_vnf_types
    elif args.shards == 1:
        (server_target,) = networks.values()
        server_kwargs = {"n_vnf_types": args.n_vnf_types}
    else:
        server_target = networks

    async def _serve() -> None:
        server = EmbeddingServer(server_target, config, **server_kwargs)
        host, port = await server.start()
        shard_note = (
            f"{args.shards} shards x {args.network_size} nodes"
            if args.shards > 1
            else f"{args.network_size} nodes"
        )
        wal_note = ""
        if config.wal_dir:
            wal_note = f", wal {config.wal_dir}"
            if config.standby:
                wal_note += " +standby"
        if config.rebalance is not None:
            wal_note += f", rebalance every {config.rebalance.interval} steps"
        print(
            f"serving {shard_note} on {host}:{port} (solver {config.solver}{wal_note})",
            flush=True,
        )
        try:
            await server.serve_until_stopped()
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; server stopped")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay a generated trace against a running service and report."""
    import asyncio

    from .constraints.registry import parse_constraint_args
    from .service import ServiceClient
    from .service.loadgen import run_load, write_report
    from .sim.trace import generate_trace

    constraints = parse_constraint_args(args.constraint)

    async def _run() -> int:
        client = await ServiceClient.connect(args.host, args.port)
        try:
            # Trace dimensions come from the addressed shard's advertised
            # identity (the hello's shard list); no --network-id means the
            # server's top-level (default-shard) fields, as in protocol v1.
            shard_info: dict[str, Any] = dict(client.hello)
            if args.network_id is not None:
                for entry in client.hello.get("shards", []):
                    if entry.get("network_id") == args.network_id:
                        shard_info = dict(entry)
                        break
                else:
                    served = [
                        str(e.get("network_id"))
                        for e in client.hello.get("shards", [])
                    ]
                    print(
                        f"dag-sfc loadgen: server does not serve network_id "
                        f"{args.network_id!r} (shards: {', '.join(served) or 'none'})",
                        file=sys.stderr,
                    )
                    return 2
            trace = generate_trace(
                steps=args.steps,
                n_nodes=int(shard_info["n_nodes"]),
                n_vnf_types=max(1, int(shard_info["n_vnf_types"])),
                sfc=SfcConfig(size=args.sfc_size),
                arrival_probability=args.arrival_prob,
                mean_hold=args.mean_hold,
                rate=args.rate,
                first_id=args.first_id,
                rng=args.seed,
            )
            print(
                f"trace: {len(trace)} arrivals over {args.steps} steps, "
                f"offered load ≈ {trace.offered_load:.1f} concurrent requests"
            )
            report = await run_load(
                client,
                trace,
                mode=args.mode,
                tick_s=args.tick,
                max_in_flight=args.max_in_flight,
                churn=args.churn,
                rng=args.seed + 1,
                network_id=args.network_id,
                constraints=constraints if constraints else None,
            )
            print(report.format_table())
            if args.out:
                await asyncio.to_thread(
                    write_report,
                    args.out,
                    report,
                    params={
                        "steps": args.steps,
                        "arrival_prob": args.arrival_prob,
                        "mean_hold": args.mean_hold,
                        "sfc_size": args.sfc_size,
                        "rate": args.rate,
                        "seed": args.seed,
                        "tick_s": args.tick,
                        "max_in_flight": args.max_in_flight,
                        "churn": args.churn,
                        "network_id": args.network_id,
                        "constraints": constraints.specs(),
                        "server": dict(client.hello),
                    },
                )
                print(f"report written to {args.out}")
            if args.shutdown:
                await client.drain(shutdown=True)
                print("server drained and shut down")
            if args.require_accepted and report.accepted == 0:
                print("loadgen: no request was accepted", file=sys.stderr)
                return 1
            return 0
        finally:
            await client.close()

    return asyncio.run(_run())


def _cmd_drill(args: argparse.Namespace) -> int:
    """Run one registered drill; exit 1 unless its report says ``ok``."""
    from .drill import DRILLS, format_summary, run_drill, write_report

    if args.list:
        for drill in DRILLS.values():
            print(f"{drill.name:<14}{drill.description}")
        return 0
    if args.scenario not in DRILLS:
        print(
            f"dag-sfc drill: unknown scenario {args.scenario!r}; "
            f"registered: {', '.join(DRILLS)}",
            file=sys.stderr,
        )
        return 2
    report = run_drill(args.scenario, solver=args.solver, seed=args.seed)
    print(format_summary(args.scenario, report))
    if args.out:
        write_report(args.out, report)
        print(f"report written to {args.out}")
    return 0 if report["ok"] else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint (``tools.reprolint``) through the dag-sfc front-end.

    ``tools`` is importable when the console script is installed from this
    repo or when the working directory is the repo root; as a fallback the
    checkout layout (``src/repro`` next to ``tools/``) is probed.
    """
    try:
        from tools.reprolint.cli import main as reprolint_main
    except ModuleNotFoundError:
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        if (root / "tools" / "reprolint").is_dir():
            sys.path.insert(0, str(root))
            from tools.reprolint.cli import main as reprolint_main
        else:
            print(
                "dag-sfc lint: the `tools.reprolint` package is not importable; "
                "run from a repo checkout or `pip install` the repo itself",
                file=sys.stderr,
            )
            return 2
    forwarded: list[str] = list(args.paths)
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.format != "text":
        forwarded.extend(["--format", args.format])
    if args.select:
        forwarded.extend(["--select", args.select])
    return reprolint_main(forwarded)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "online":
        return _cmd_online(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "drill":
        return _cmd_drill(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "list-solvers":
        for name in available_solvers():
            print(name)
        return 0
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
