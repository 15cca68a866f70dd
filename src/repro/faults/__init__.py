"""Fault injection and recovery for the DAG-SFC stack.

* :mod:`repro.faults.model` — timed fail/recover events, MTBF/MTTR script
  generation and the mutable :class:`~repro.faults.model.FaultState` (the
  solver-facing view drops what it marks dead);
* :mod:`repro.faults.impact` — per-embedding damage assessment;
* :mod:`repro.faults.repair` — the reroute → re-embed → evict ladder over
  the shared reservation ledger;
* :mod:`repro.faults.sweep` — survival/repair-cost vs failure-rate sweeps
  for the benchmark report.

Scripted end-to-end fault drills against the embedding service live in
:mod:`repro.drill` (``dag-sfc drill smoke``).
"""

from .impact import RequestImpact, assess_impact
from .model import (
    FaultAction,
    FaultEvent,
    FaultKind,
    FaultScript,
    FaultSpec,
    FaultState,
    FaultTarget,
    generate_fault_script,
    script_from_dict,
    script_to_dict,
)
from .repair import EmbeddedRequest, RepairAction, RepairEngine, RepairOutcome

__all__ = [
    "FaultKind",
    "FaultAction",
    "FaultTarget",
    "FaultEvent",
    "FaultScript",
    "FaultSpec",
    "FaultState",
    "generate_fault_script",
    "script_to_dict",
    "script_from_dict",
    "RequestImpact",
    "assess_impact",
    "RepairAction",
    "RepairOutcome",
    "EmbeddedRequest",
    "RepairEngine",
]
