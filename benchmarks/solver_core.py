#!/usr/bin/env python
"""Solver-core microbenchmark: the fixed-seed MBBE workload behind the
fast-path acceptance bar (see ``docs/performance.md``).

Dependency-free (stdlib + this repo): runs as a plain script, NOT through
pytest-benchmark, so CI and laptops measure the exact same loop::

    python benchmarks/solver_core.py                # measure + check
    python benchmarks/solver_core.py --reps 3 --budget 120   # CI smoke mode
    python benchmarks/solver_core.py --out BENCH_solver_core.json  # refresh

What it does:

1. builds the benchmark instances — the ``table2_s150`` cell of the golden
   grid (:data:`repro.sim.goldens.BENCH_SCENARIO_ID`): Table-2 defaults
   scaled to 150 nodes, 6 fixed seeds;
2. times the MBBE embed loop over all seeds (best of ``--reps``), plus the
   full trial loop (instance generation + embed) for context, and sums the
   solver's deterministic work counters (``combos_scored``,
   ``combos_materialised`` from the embed stats) over the seeds;
3. **equivalence-checks every benchmarked seed** against the committed
   golden fixture (``tests/golden/solver_equivalence.json``) — a fast run
   with wrong answers is a failure, not a result;
4. compares against the pinned pre-optimization baseline (measured on
   the pre-change tree, commit ``47df349``, same machine/methodology as
   the committed numbers) and, only when ``--out`` names a file, writes
   the result there. The committed ``BENCH_solver_core.json`` is rewritten
   only by passing it to ``--out`` on purpose; a check run leaves it as
   it is.

Exit status is non-zero when the equivalence check fails or the harness
exceeds ``--budget`` wall seconds (used by the CI smoke job; the budget is
deliberately generous — it catches order-of-magnitude regressions, not
machine noise). With ``--budget``, the run also fails when it materialises
more candidate combos than the committed ``BENCH_solver_core.json`` records:
a count, so the check is free of timing noise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.network.generator import generate_network  # noqa: E402
from repro.sfc.generator import generate_dag_sfc  # noqa: E402
from repro.sim.experiment import SolverSpec  # noqa: E402
from repro.sim.goldens import BENCH_SCENARIO_ID, GOLDEN_GRID, run_golden_cell  # noqa: E402
from repro.solvers.registry import make_solver  # noqa: E402
from repro.utils.rng import trial_seed  # noqa: E402

#: Pre-optimization reference (commit 47df349, this harness's loop, best-of-7
#: on the machine that produced the committed BENCH_solver_core.json). The
#: speedup field is only meaningful relative to measurements from the same
#: machine; CI compares wall budgets, not this ratio.
BASELINE = {
    "commit": "47df349",
    "embed_best_s": 0.1085,
    "trial_best_s": 0.142,
}

GOLDEN_FIXTURE = REPO_ROOT / "tests" / "golden" / "solver_equivalence.json"
COMMITTED = REPO_ROOT / "BENCH_solver_core.json"

#: Deterministic per-embed work counters (``EmbeddingResult.stats`` keys).
WORK_COUNTERS = ("combos_scored", "combos_materialised")


def _bench_cell() -> Any:
    for cell in GOLDEN_GRID:
        if cell.scenario_id == BENCH_SCENARIO_ID:
            return cell
    raise LookupError(BENCH_SCENARIO_ID)


def _build_instances(cell: Any) -> list[tuple[int, Any, Any, int, int]]:
    """Materialize the benchmark instances (same derivation as run_trial)."""
    out = []
    size = cell.scenario.network.size
    for seed in cell.seeds:
        rng = np.random.default_rng(seed)
        network = generate_network(cell.scenario.network, rng)
        dag = generate_dag_sfc(cell.scenario.sfc, cell.scenario.network.n_vnf_types, rng)
        src, dst = (int(v) for v in rng.choice(size, size=2, replace=False))
        out.append((seed, network, dag, src, dst))
    return out


def time_embed_loop(cell: Any, instances: Sequence[tuple[int, Any, Any, int, int]], reps: int) -> float:
    """Best-of-``reps`` wall time of the MBBE embed loop over all seeds."""
    solver = make_solver("MBBE")
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for seed, network, dag, src, dst in instances:
            solver_rng = np.random.default_rng(trial_seed(seed, 0, salt=0xA160))
            solver.embed(network, dag, src, dst, cell.scenario.flow, rng=solver_rng)
        best = min(best, time.perf_counter() - t0)
    return best


def count_work(
    cell: Any, instances: Sequence[tuple[int, Any, Any, int, int]]
) -> dict[str, int]:
    """The MBBE work counters summed over every benchmarked seed."""
    solver = make_solver("MBBE")
    totals = dict.fromkeys(WORK_COUNTERS, 0)
    for seed, network, dag, src, dst in instances:
        solver_rng = np.random.default_rng(trial_seed(seed, 0, salt=0xA160))
        stats = solver.embed(network, dag, src, dst, cell.scenario.flow, rng=solver_rng).stats
        for key in WORK_COUNTERS:
            totals[key] += stats[key]
    return totals


def committed_work() -> dict[str, int] | None:
    """The work counters of the committed result file, if it records them."""
    try:
        with open(COMMITTED, encoding="utf-8") as fh:
            return json.load(fh).get("work")
    except FileNotFoundError:
        return None


def time_trial_loop(cell: Any, reps: int) -> float:
    """Best-of-``reps`` wall time including instance generation."""
    specs = (SolverSpec(name="MBBE"),)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for seed in cell.seeds:
            run_golden_cell(cell, seed, solvers=specs)
        best = min(best, time.perf_counter() - t0)
    return best


def check_equivalence(cell: Any) -> list[str]:
    """Re-run every benchmarked seed, compare against the committed fixture.

    Returns a list of human-readable mismatch descriptions (empty = OK).
    """
    with open(GOLDEN_FIXTURE, encoding="utf-8") as fh:
        fixture = json.load(fh)
    runs = fixture["scenarios"][cell.scenario_id]["runs"]
    problems: list[str] = []
    for seed in cell.seeds:
        got = json.loads(json.dumps(run_golden_cell(cell, seed)))
        want = runs[str(seed)]
        if got != want:
            diff_solvers = sorted(
                s for s in set(got) | set(want) if got.get(s) != want.get(s)
            )
            problems.append(f"seed {seed}: solvers differ: {', '.join(diff_solvers)}")
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=7, help="timing repetitions (best-of)")
    parser.add_argument(
        "--out", type=Path, default=None, help="write the result JSON here (default: none)"
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="fail when the whole harness exceeds this many wall seconds",
    )
    parser.add_argument(
        "--no-check", action="store_true", help="skip the golden-equivalence check"
    )
    args = parser.parse_args(argv)

    harness_t0 = time.perf_counter()
    baseline_work = committed_work()  # read before --out may rewrite it
    cell = _bench_cell()
    print(f"scenario {cell.scenario_id}: {len(cell.seeds)} seeds, best of {args.reps}")

    instances = _build_instances(cell)
    embed_best = time_embed_loop(cell, instances, args.reps)
    trial_best = time_trial_loop(cell, args.reps)
    print(f"  embed loop (solver only):     {embed_best * 1e3:8.1f} ms")
    print(f"  trial loop (incl. generation):{trial_best * 1e3:8.1f} ms")
    work = count_work(cell, instances)
    print(
        "  work: "
        + ", ".join(f"{key} {work[key]}" for key in WORK_COUNTERS)
    )

    problems: list[str] = []
    if args.no_check:
        equivalence = "skipped"
    else:
        problems = check_equivalence(cell)
        equivalence = "ok" if not problems else "FAILED"
        for p in problems:
            print(f"  equivalence mismatch: {p}", file=sys.stderr)
    print(f"  golden equivalence: {equivalence}")

    embed_speedup = BASELINE["embed_best_s"] / embed_best if embed_best > 0 else 0.0
    trial_speedup = BASELINE["trial_best_s"] / trial_best if trial_best > 0 else 0.0
    print(
        f"  vs pre-optimization baseline ({BASELINE['commit']}): "
        f"embed {embed_speedup:.2f}x, trial {trial_speedup:.2f}x"
    )

    doc = {
        "format": "repro.dag-sfc/bench-solver-core",
        "version": 1,
        "scenario": cell.scenario_id,
        "seeds": list(cell.seeds),
        "reps": args.reps,
        "measured": {
            "embed_best_s": round(embed_best, 6),
            "trial_best_s": round(trial_best, 6),
        },
        "baseline": BASELINE,
        "speedup": {
            "embed": round(embed_speedup, 3),
            "trial": round(trial_speedup, 3),
        },
        "equivalence": equivalence,
        "work": work,
    }
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {args.out}")

    harness_wall = time.perf_counter() - harness_t0
    print(f"  harness wall time: {harness_wall:.1f}s")
    if problems:
        return 1
    if args.budget is not None and harness_wall > args.budget:
        print(
            f"  BUDGET EXCEEDED: {harness_wall:.1f}s > {args.budget:.1f}s",
            file=sys.stderr,
        )
        return 1
    limit = (baseline_work or {}).get("combos_materialised")
    if args.budget is not None and limit is not None and work["combos_materialised"] > limit:
        print(
            f"  WORK REGRESSION: combos_materialised {work['combos_materialised']}"
            f" > committed {limit}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
