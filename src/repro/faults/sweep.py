"""Fault-driven sweeps: survival and repair cost vs substrate failure rate.

The offline analogue of one chaos run, repeated over a grid: for each
failure intensity (an MTBF scale — smaller means elements die more often)
and each algorithm, replay the *same* seeded trace and fault script through
an :class:`~repro.engine.core.EmbeddingEngine` and record what the repair
ladder achieved. Paired like every other sweep in this repo: at one
(scale, trial) cell all algorithms see identical demand and identical
faults, so differences are attributable to the embedding strategy alone.

``benchmarks/bench_ext_robustness.py`` registers this next to the paper's
capacity-tightness sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..config import NetworkConfig, SfcConfig
from ..engine.core import EmbeddingEngine
from ..exceptions import ConfigurationError
from ..network.generator import generate_network
from ..sim.trace import generate_trace, replay
from ..solvers import make_solver
from ..utils.rng import trial_seed
from .model import FaultSpec, generate_fault_script
from .repair import RepairAction

__all__ = [
    "DEFAULT_ALGORITHMS",
    "FaultSweepCell",
    "run_fault_sweep",
    "sweep_table",
    "sweep_to_dict",
]

#: Seed salt for fault-sweep streams, distinct from the fault drills'.
_SWEEP_SALT = 0x5EEB

#: The paper's two benchmarks plus both exact-ladder variants (§5).
DEFAULT_ALGORITHMS = ("RANV", "MINV", "BBE", "MBBE")


@dataclass(frozen=True)
class FaultSweepCell:
    """Aggregated outcome of one (algorithm, failure-scale) grid cell."""

    algorithm: str
    #: MTBF divisor — failure rate grows with this value.
    failure_scale: float
    trials: int
    arrivals: int
    accepted: int
    evicted: int
    repairs_rerouted: int
    repairs_reembedded: int
    repair_cost_delta: float
    total_cost_accepted: float

    @property
    def acceptance_ratio(self) -> float:
        return self.accepted / self.arrivals if self.arrivals else 1.0

    @property
    def survival_rate(self) -> float:
        """Fraction of accepted requests that were never evicted."""
        return 1.0 - self.evicted / self.accepted if self.accepted else 1.0

    @property
    def repair_cost_overhead(self) -> float:
        """Repair premium relative to the admitted objective value."""
        if self.total_cost_accepted <= 0:
            return 0.0
        return self.repair_cost_delta / self.total_cost_accepted

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "failure_scale": self.failure_scale,
            "trials": self.trials,
            "arrivals": self.arrivals,
            "accepted": self.accepted,
            "evicted": self.evicted,
            "repairs_rerouted": self.repairs_rerouted,
            "repairs_reembedded": self.repairs_reembedded,
            "survival_rate": round(self.survival_rate, 6),
            "repair_cost_overhead": round(self.repair_cost_overhead, 6),
            "acceptance_ratio": round(self.acceptance_ratio, 6),
        }


def run_fault_sweep(
    *,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    failure_scales: Sequence[float] = (0.5, 1.0, 2.0),
    trials: int = 3,
    steps: int = 60,
    network: NetworkConfig | None = None,
    sfc: SfcConfig | None = None,
    base_fault: FaultSpec | None = None,
    seed: int = 0,
) -> list[FaultSweepCell]:
    """Run the paired grid; returns one cell per (algorithm, scale).

    ``failure_scales`` divide the base spec's MTBFs: scale 2.0 means every
    element fails twice as often. Trace and script at a given (scale, trial)
    are identical across algorithms.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if any(s <= 0 for s in failure_scales):
        raise ConfigurationError("failure scales must be > 0")
    net_cfg = network if network is not None else NetworkConfig(size=30, n_vnf_types=6)
    sfc_cfg = sfc if sfc is not None else SfcConfig()
    base = (
        base_fault
        if base_fault is not None
        else FaultSpec(
            horizon=steps, node_mtbf=30.0, link_mtbf=18.0, instance_mtbf=36.0
        )
    )

    cells: list[FaultSweepCell] = []
    for algorithm in algorithms:
        for scale in failure_scales:
            spec = FaultSpec(
                horizon=base.horizon,
                node_mtbf=base.node_mtbf / scale,
                node_mttr=base.node_mttr,
                link_mtbf=base.link_mtbf / scale,
                link_mttr=base.link_mttr,
                instance_mtbf=base.instance_mtbf / scale,
                instance_mttr=base.instance_mttr,
            )
            totals = {
                "arrivals": 0,
                "accepted": 0,
                "evicted": 0,
                "rerouted": 0,
                "reembedded": 0,
            }
            cost_delta = 0.0
            cost_accepted = 0.0
            for trial in range(trials):
                net = generate_network(
                    net_cfg, rng=trial_seed(seed, trial, salt=_SWEEP_SALT)
                )
                trace = generate_trace(
                    steps=steps,
                    n_nodes=net_cfg.size,
                    n_vnf_types=net_cfg.n_vnf_types,
                    sfc=sfc_cfg,
                    rng=trial_seed(seed, 1000 + trial, salt=_SWEEP_SALT),
                )
                script = generate_fault_script(
                    spec,
                    net,
                    rng=trial_seed(
                        seed, 2000 + trial * 17 + int(scale * 4), salt=_SWEEP_SALT
                    ),
                )
                engine = EmbeddingEngine(net, make_solver(algorithm))
                replay(
                    trace,
                    engine,
                    faults=script,
                    rng=trial_seed(seed, 3000 + trial, salt=_SWEEP_SALT),
                )
                counters = engine.counters
                totals["arrivals"] += int(counters["dispatched"])
                totals["accepted"] += int(counters["accepted"])
                totals["evicted"] += int(counters["evictions"])
                totals["rerouted"] += int(counters["repairs_rerouted"])
                totals["reembedded"] += int(counters["repairs_reembedded"])
                cost_delta += counters["repair_cost_delta"]
                cost_accepted += counters["total_cost_accepted"]
            cells.append(
                FaultSweepCell(
                    algorithm=algorithm,
                    failure_scale=float(scale),
                    trials=trials,
                    arrivals=totals["arrivals"],
                    accepted=totals["accepted"],
                    evicted=totals["evicted"],
                    repairs_rerouted=totals["rerouted"],
                    repairs_reembedded=totals["reembedded"],
                    repair_cost_delta=cost_delta,
                    total_cost_accepted=cost_accepted,
                )
            )
    return cells


def sweep_table(cells: Sequence[FaultSweepCell]) -> str:
    """Render the grid the way the paper renders its sweeps."""
    header = (
        f"{'algorithm':<10} {'scale':>6} {'accept':>7} {'survival':>9} "
        f"{'reroutes':>9} {'re-embeds':>10} {'overhead':>9}"
    )
    lines = [header, "-" * len(header)]
    for cell in cells:
        lines.append(
            f"{cell.algorithm:<10} {cell.failure_scale:>6g} "
            f"{cell.acceptance_ratio:>7.1%} {cell.survival_rate:>9.1%} "
            f"{cell.repairs_rerouted:>9d} {cell.repairs_reembedded:>10d} "
            f"{cell.repair_cost_overhead:>+9.2%}"
        )
    return "\n".join(lines)


def sweep_to_dict(cells: Sequence[FaultSweepCell]) -> Mapping[str, Any]:
    """A JSON-ready document for benchmark ``extra_info``."""
    return {
        "cells": [cell.to_dict() for cell in cells],
    }
