"""Golden-equivalence grid: the fixed seeds × scenarios the fast path must match.

The solver-core optimisations (copy-on-write counts, search-result caching —
see ``docs/performance.md``) are *behaviour-identical by construction*: for
identical seeds they must produce identical embeddings, costs and
success/failure outcomes. This module pins down what "identical" means:

* :data:`GOLDEN_GRID` — a grid of scenarios × solvers × seeds, small enough
  to run in CI yet covering single and parallel layers, tight capacities,
  a delay budget (reprice rounds and per-path vetoes) and every production
  solver family (MBBE, MBBE-S, BBE, RANV, MINV);
* :func:`capture` — runs the grid and returns a canonical JSON-able document
  (costs plus fully serialized embeddings);
* ``python -m repro.sim.goldens --out tests/golden/solver_equivalence.json``
  — refreshes the committed fixture after an *intentional* behaviour change.

``tests/test_golden_equivalence.py`` re-runs the grid on every test run and
compares against the committed fixture, so any optimisation that perturbs a
placement, a path or a cost by even one bit fails loudly. The benchmark
harness (``benchmarks/solver_core.py``) draws its seeds from the same grid,
so every benchmarked seed is equivalence-checked.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..config import ScenarioConfig, table2_defaults
from ..constraints.registry import parse_constraint_args
from ..network.generator import generate_network
from ..serialize import embedding_to_dict
from ..sfc.generator import generate_dag_sfc
from ..solvers.registry import make_solver
from ..utils.rng import trial_seed
from .experiment import SolverSpec

__all__ = ["GoldenScenario", "GOLDEN_GRID", "BENCH_SCENARIO_ID", "capture"]

#: Master seed shared with the experiment runner (ICPP 2018 opening day).
_MASTER_SEED = 20180813


@dataclass(frozen=True)
class GoldenScenario:
    """One cell family of the golden grid."""

    scenario_id: str
    scenario: ScenarioConfig
    solvers: tuple[SolverSpec, ...]
    #: per-trial instance seeds (deterministically derived, stored explicit).
    seeds: tuple[int, ...]
    #: ``--constraint`` mini-specs every solver of the cell embeds under.
    constraints: tuple[str, ...] = ()


def _seeds(n: int, salt: int) -> tuple[int, ...]:
    return tuple(trial_seed(_MASTER_SEED, t, salt=salt) for t in range(n))


def _grid() -> tuple[GoldenScenario, ...]:
    table2 = table2_defaults()
    return (
        # Table-2 defaults scaled to 150 nodes — the benchmark scenario.
        GoldenScenario(
            scenario_id="table2_s150",
            scenario=table2.with_network(size=150),
            solvers=(
                SolverSpec(name="MBBE"),
                SolverSpec(name="RANV"),
                SolverSpec(name="MINV"),
            ),
            seeds=_seeds(6, salt=0),
        ),
        # Small instance where exhaustive BBE is affordable.
        GoldenScenario(
            scenario_id="small_s60",
            scenario=table2.with_network(size=60).with_sfc(size=4),
            solvers=(
                SolverSpec(name="MBBE"),
                SolverSpec(name="BBE"),
                SolverSpec(name="RANV"),
                SolverSpec(name="MINV"),
            ),
            seeds=_seeds(6, salt=1),
        ),
        # Longer chain with more parallel layers.
        GoldenScenario(
            scenario_id="parallel_s100",
            scenario=table2.with_network(size=100).with_sfc(size=6),
            solvers=(
                SolverSpec(name="MBBE"),
                SolverSpec(name="RANV"),
                SolverSpec(name="MINV"),
            ),
            seeds=_seeds(4, salt=2),
        ),
        # Tight capacities exercise the residual filters and fallback routing.
        GoldenScenario(
            scenario_id="tight_s80",
            scenario=table2.with_network(
                size=80, vnf_capacity=2.0, link_capacity=2.0
            ),
            solvers=(
                SolverSpec(name="MBBE"),
                SolverSpec(name="MINV"),
                SolverSpec(name="MBBE-S"),
            ),
            seeds=_seeds(4, salt=3),
        ),
        # A delay budget drives the LARAC reprice rounds (lam > 0 prices
        # every search) and, at 2.5 per hop, the per-path admit_path veto:
        # on this unloaded network budget 8 alone never binds.
        GoldenScenario(
            scenario_id="delay_s150",
            scenario=table2.with_network(size=150).with_sfc(size=6),
            solvers=(SolverSpec(name="MBBE"), SolverSpec(name="MBBE-S")),
            seeds=_seeds(3, salt=4),
            constraints=("delay:budget=8,per_hop_delay=2.5",),
        ),
    )


GOLDEN_GRID: tuple[GoldenScenario, ...] = _grid()

#: The grid scenario the solver-core microbenchmarks run (see benchmarks/).
BENCH_SCENARIO_ID = "table2_s150"


def run_golden_cell(
    cell: GoldenScenario, seed: int, *, solvers: Sequence[SolverSpec] | None = None
) -> dict[str, Any]:
    """Run one instance of a grid cell; return solver -> canonical outcome.

    Instance derivation mirrors :func:`repro.sim.runner.run_trial` exactly
    (same rng consumption order, same per-solver derived streams), so these
    goldens certify the real experiment pipeline.
    """
    specs = tuple(solvers) if solvers is not None else cell.solvers
    rng = np.random.default_rng(seed)
    network = generate_network(cell.scenario.network, rng)
    dag = generate_dag_sfc(
        cell.scenario.sfc, cell.scenario.network.n_vnf_types, rng
    )
    n = cell.scenario.network.size
    src, dst = (int(v) for v in rng.choice(n, size=2, replace=False))
    constraints = parse_constraint_args(cell.constraints)
    out: dict[str, Any] = {}
    for i, spec in enumerate(specs):
        solver = make_solver(spec.name, **dict(spec.kwargs))
        solver_rng = np.random.default_rng(trial_seed(seed, i, salt=0xA160))
        result = solver.embed(
            network, dag, src, dst, cell.scenario.flow, rng=solver_rng,
            constraints=constraints,
        )
        entry: dict[str, Any] = {"success": result.success}
        if result.success:
            assert result.cost is not None and result.embedding is not None
            entry["total_cost"] = result.cost.total
            entry["vnf_cost"] = result.cost.vnf_cost
            entry["link_cost"] = result.cost.link_cost
            entry["embedding"] = embedding_to_dict(result.embedding)
        else:
            entry["reason"] = result.reason
        out[spec.series] = entry
    return out


def capture(grid: Sequence[GoldenScenario] = GOLDEN_GRID) -> dict[str, Any]:
    """Run the whole grid and return the fixture document."""
    doc: dict[str, Any] = {
        "format": "repro.dag-sfc/golden-equivalence",
        "version": 1,
        "master_seed": _MASTER_SEED,
        "scenarios": {},
    }
    for cell in grid:
        doc["scenarios"][cell.scenario_id] = {
            "solvers": [s.series for s in cell.solvers],
            "runs": {str(seed): run_golden_cell(cell, seed) for seed in cell.seeds},
        }
    return doc


def main(argv: Sequence[str] | None = None) -> int:
    """Refresh the committed fixture (after an intentional behaviour change)."""
    parser = argparse.ArgumentParser(
        description="Capture the golden-equivalence fixture for the solver fast path."
    )
    parser.add_argument(
        "--out",
        default="tests/golden/solver_equivalence.json",
        help="fixture path to (over)write",
    )
    args = parser.parse_args(argv)
    doc = capture()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_runs = sum(
        len(cell["runs"]) * len(cell["solvers"]) for cell in doc["scenarios"].values()
    )
    print(f"wrote {args.out}: {len(doc['scenarios'])} scenarios, {n_runs} solver runs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
